package fleet

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
)

// TestShardStepZeroAlloc pins the uninstrumented shard merge path at
// zero allocations: folding a member report into a shard aggregate and
// folding shard aggregates together are pure integer arithmetic. At a
// million members per sweep, one allocation here is a million
// allocations per slice.
func TestShardStepZeroAlloc(t *testing.T) {
	rep := core.Report{
		ScrubbedBytes: 1 << 30,
		Passes:        3,
		LSEsFound:     7,
		LSEsRepaired:  5,
		LSEsInjected:  9,
		LSEsDetected:  7,
		DetectionTime: 90 * time.Minute,
	}
	var agg aggregate
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := agg.add(rep, 0, nil, nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("aggregate.add (uninstrumented): %.1f allocs/op, want 0", allocs)
	}

	var a, b aggregate
	if err := b.add(rep, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if err := a.merge(&b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("aggregate.merge (uninstrumented): %.1f allocs/op, want 0", allocs)
	}
}

// sweepClasses is the fleet-sweep benchmark's fleet of the given size:
// half fixed-delay sequential scrubbing, half Waiting over 64 staggered
// regions, on the small demo disk with uniform faults.
func sweepClasses(drives int) []MemberClass {
	m := disk.DemoSmall()
	return []MemberClass{
		{Name: "fixed", Count: drives - drives/2, Config: core.Config{
			Model: &m, Algorithm: core.Sequential, Policy: core.PolicyFixedDelay,
			Delay: 200 * time.Millisecond, ReqBytes: 256 << 10, AutoRepair: true,
			Faults: fault.Uniform{RatePerHour: 2},
		}},
		{Name: "waiting", Count: drives / 2, Config: core.Config{
			Model: &m, Algorithm: core.Staggered, Regions: 64, Policy: core.PolicyWaiting,
			WaitThreshold: 50 * time.Millisecond, ReqBytes: 256 << 10, AutoRepair: true,
			Faults: fault.Uniform{RatePerHour: 2},
		}},
	}
}

// TestHydrateParkSteadyStateAllocs pins what one instrumented member
// costs per slice once its shard's class stacks exist: a restore in
// place, a slice of simulation, a state snapshot and a copy of its obs
// values into its own buffer. Rebuilding the stack or replaying a
// name-keyed obs snapshot per member costs hundreds of allocations, so
// either coming back fails this guard.
func TestHydrateParkSteadyStateAllocs(t *testing.T) {
	e, err := New(Config{Seed: testSeed, Instrument: true}, sweepClasses(32))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stacks := make([]*stack, len(e.classes))
	var agg aggregate
	var boundary time.Duration
	slice := func() {
		boundary += time.Second
		for i := range e.slots {
			if err := e.advance(ctx, i, boundary, false, &agg, stacks); err != nil {
				t.Fatal(err)
			}
		}
	}
	slice() // first sight: builds the stacks and sizes every buffer
	const maxAllocs = 0
	perMember := testing.AllocsPerRun(4, slice) / float64(len(e.slots))
	t.Logf("%.1f allocs per instrumented member per slice", perMember)
	if perMember > maxAllocs {
		t.Errorf("%.1f allocs per instrumented member per slice, want <= %d", perMember, maxAllocs)
	}
}

// TestFirstParkSizesValuesOnce pins a member's first park at one
// allocation for its obs value buffer, sized to the registry's layout,
// rather than the several an append from nil makes as the vector grows.
// It parks the same first-sight member twice, once handed an empty
// buffer of its own, and charges the difference to the buffer.
func TestFirstParkSizesValuesOnce(t *testing.T) {
	e, err := New(Config{Seed: testSeed, Instrument: true}, sweepClasses(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	stacks := make([]*stack, len(e.classes))
	var agg aggregate
	if err := e.advance(ctx, 0, time.Second, false, &agg, stacks); err != nil {
		t.Fatal(err) // builds the class's stack
	}
	width := stacks[0].layout.Width()
	buf := make([]int64, 0, width)
	firstPark := func(vals []int64) float64 {
		return testing.AllocsPerRun(8, func() {
			m := &e.slots[0]
			m.state, m.vals = nil, vals
			if err := e.advance(ctx, 0, time.Second, false, &agg, stacks); err != nil {
				t.Fatal(err)
			}
		})
	}
	if d := firstPark(nil) - firstPark(buf); d != 1 {
		t.Errorf("a first park allocates %.1f times for its value buffer, want 1", d)
	}
	if got := e.slots[0].vals; len(got) != width || cap(got) != width {
		t.Errorf("parked values: len %d, cap %d, want both %d", len(got), cap(got), width)
	}
}

// BenchmarkCampaignInstrumented runs one fleet-sweep campaign: 256
// instrumented drives in 8 shards over 4 s in 1 s slices.
func BenchmarkCampaignInstrumented(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := New(Config{Shards: 8, Workers: 2, Slice: time.Second, Seed: 1000, Instrument: true}, sweepClasses(256))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := e.Run(context.Background(), 4*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}
