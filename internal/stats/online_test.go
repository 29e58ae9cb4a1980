package stats

import (
	"testing"
	"time"
)

func TestOnlineIdleBasics(t *testing.T) {
	o := NewOnlineIdle(nil)
	if o.total != 0 || o.ExpectedRemaining(0) != 0 {
		t.Fatalf("empty histogram should answer zeros")
	}
	o.Observe(-time.Second) // ignored
	o.Observe(0)            // ignored
	durs := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		time.Second, 2 * time.Second, 10 * time.Second,
	}
	var sum time.Duration
	for _, d := range durs {
		o.Observe(d)
		sum += d
	}
	if o.total != int64(len(durs)) {
		t.Fatalf("total = %d, want %d", o.total, len(durs))
	}
	if o.Sum() != sum {
		t.Fatalf("Sum = %v, want %v", o.Sum(), sum)
	}
	if time.Duration(o.max) != 10*time.Second {
		t.Fatalf("max = %v, want 10s", time.Duration(o.max))
	}
}

func TestOnlineIdleExpectedRemaining(t *testing.T) {
	o := NewOnlineIdle(nil)
	// Half the intervals are 10 ms, half are 10 s: once past 100 ms of
	// observed idleness only the 10 s population remains.
	for i := 0; i < 100; i++ {
		o.Observe(10 * time.Millisecond)
		o.Observe(10 * time.Second)
	}
	rem := o.ExpectedRemaining(100 * time.Millisecond)
	want := 10*time.Second - 100*time.Millisecond
	if rem != want {
		t.Fatalf("ExpectedRemaining(100ms) = %v, want %v", rem, want)
	}
	// Unconditional expectation mixes both populations.
	rem0 := o.ExpectedRemaining(0)
	want0 := (10*time.Millisecond + 10*time.Second) / 2
	if rem0 != want0 {
		t.Fatalf("ExpectedRemaining(0) = %v, want %v", rem0, want0)
	}
	// Beyond every observation the conditional sample is empty.
	if rem = o.ExpectedRemaining(2 * time.Hour); rem != 0 {
		t.Fatalf("ExpectedRemaining(2h) = %v, want 0", rem)
	}
}

// TestOnlineIdleMatchesIdleAnalysis ties the online estimator to the
// offline IdleAnalysis on bucket-boundary probes, where both are exact.
func TestOnlineIdleMatchesIdleAnalysis(t *testing.T) {
	durs := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 5 * time.Millisecond,
		20 * time.Millisecond, 200 * time.Millisecond,
		time.Second, 2 * time.Second, 5 * time.Second, 50 * time.Second,
	}
	on := NewOnlineIdle(nil)
	for _, d := range durs {
		on.Observe(d)
	}
	off := NewIdleAnalysis(durs)
	for _, probe := range []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second} {
		got := on.ExpectedRemaining(probe).Seconds()
		want := off.ExpectedRemaining(probe.Seconds())
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("ExpectedRemaining(%v): online %g vs offline %g", probe, got, want)
		}
	}
}

func TestOnlineIdleStateRoundTrip(t *testing.T) {
	o := NewOnlineIdle(nil)
	for i := 1; i <= 1000; i++ {
		o.Observe(time.Duration(i) * time.Millisecond)
	}
	st := o.State()
	r, ok := RestoreOnlineIdle(st)
	if !ok {
		t.Fatal("restore rejected a valid state")
	}
	if r.total != o.total || r.Sum() != o.Sum() || r.max != o.max {
		t.Fatalf("restored totals differ: %d/%v/%d vs %d/%v/%d",
			r.total, r.Sum(), r.max, o.total, o.Sum(), o.max)
	}
	for _, probe := range []time.Duration{0, 10 * time.Millisecond, time.Second} {
		if r.ExpectedRemaining(probe) != o.ExpectedRemaining(probe) {
			t.Fatalf("ExpectedRemaining(%v) diverged after restore", probe)
		}
	}

	// Corrupted shapes are rejected.
	bad := o.State()
	bad.Counts = bad.Counts[:1]
	if _, ok := RestoreOnlineIdle(bad); ok {
		t.Fatal("restore accepted truncated counts")
	}
	bad = o.State()
	bad.BoundsNanos[1] = bad.BoundsNanos[0]
	if _, ok := RestoreOnlineIdle(bad); ok {
		t.Fatal("restore accepted non-ascending bounds")
	}
}

func TestOnlineIdleObserveAllocs(t *testing.T) {
	o := NewOnlineIdle(nil)
	o.Observe(time.Second)
	allocs := testing.AllocsPerRun(1000, func() {
		o.Observe(123 * time.Millisecond)
		_ = o.ExpectedRemaining(10 * time.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("Observe+ExpectedRemaining allocated %.1f/op, want 0", allocs)
	}
}
