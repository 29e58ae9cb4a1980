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

// TestHydrateParkSteadyStateAllocs pins what one instrumented member
// costs per slice once its shard's class stacks exist: a restore in
// place, a slice of simulation, a state snapshot and a copy of its obs
// values into its own buffer. Rebuilding the stack or replaying a
// name-keyed obs snapshot per member costs hundreds of allocations, so
// either coming back fails this guard.
func TestHydrateParkSteadyStateAllocs(t *testing.T) {
	m := disk.DemoSmall()
	e, err := New(Config{Seed: testSeed, Instrument: true}, []MemberClass{
		{Name: "fixed", Count: 16, Config: core.Config{
			Model: &m, Algorithm: core.Sequential, Policy: core.PolicyFixedDelay,
			Delay: 200 * time.Millisecond, ReqBytes: 256 << 10, AutoRepair: true,
			Faults: fault.Uniform{RatePerHour: 2},
		}},
		{Name: "waiting", Count: 16, Config: core.Config{
			Model: &m, Algorithm: core.Staggered, Regions: 64, Policy: core.PolicyWaiting,
			WaitThreshold: 50 * time.Millisecond, ReqBytes: 256 << 10, AutoRepair: true,
			Faults: fault.Uniform{RatePerHour: 2},
		}},
	})
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
	const maxAllocs = 16
	perMember := testing.AllocsPerRun(4, slice) / float64(len(e.slots))
	t.Logf("%.1f allocs per instrumented member per slice", perMember)
	if perMember > maxAllocs {
		t.Errorf("%.1f allocs per instrumented member per slice, want <= %d", perMember, maxAllocs)
	}
}
