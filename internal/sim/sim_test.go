package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroValueReady(t *testing.T) {
	var s Simulator
	ran := false
	s.After(time.Second, func() { ran = true })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran {
		t.Fatal("event did not run")
	}
	if s.Now() != time.Second {
		t.Fatalf("Now = %v, want 1s", s.Now())
	}
}

func TestOrderingByTime(t *testing.T) {
	s := New()
	var order []int
	s.At(3*time.Millisecond, func() { order = append(order, 3) })
	s.At(1*time.Millisecond, func() { order = append(order, 1) })
	s.At(2*time.Millisecond, func() { order = append(order, 2) })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestFIFOTieBreak(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 100; i++ {
		i := i
		s.At(time.Millisecond, func() { order = append(order, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("same-instant events fired out of scheduling order: %v", order)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	var tm Timer
	tm.Init(s, func() { ran = true })
	tm.Arm(time.Millisecond)
	tm.Disarm()
	if tm.Armed() {
		t.Fatal("Armed() = true after Disarm")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ran {
		t.Fatal("disarmed timer ran")
	}
	// Double-disarm and disarm-after-fire must be no-ops.
	tm.Disarm()
	tm.Arm(0)
	if !tm.Armed() {
		t.Fatal("Armed() = false after Arm")
	}
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !ran || tm.Armed() {
		t.Fatalf("ran=%v armed=%v after firing, want true, false", ran, tm.Armed())
	}
	tm.Disarm()
	if s.Len() != 0 {
		t.Fatalf("Len = %d after disarm-after-fire, want 0", s.Len())
	}
}

// TestCancelNil: the zero Timer is disarmed, and disarming or recording
// it needs no simulator.
func TestCancelNil(t *testing.T) {
	var tm Timer
	tm.Disarm() // must not panic
	if armed, at, seq := tm.Record(); tm.Armed() || armed || at != 0 || seq != 0 {
		t.Fatalf("zero Timer: Armed %v, Record %v/%v/%v", tm.Armed(), armed, at, seq)
	}
	if err := tm.Restore(false, 0, 0); err != nil {
		t.Fatalf("Restore of a disarmed record: %v", err)
	}
	if err := tm.Restore(true, 0, 1); err == nil {
		t.Fatal("armed Restore of a Timer with no simulator succeeded")
	}
}

// TestRearmTakesFreshSeq: re-arming an armed timer is a removal plus a
// fresh arming, so it fires after an event scheduled in between at the
// same instant, as a cancel and reschedule did.
func TestRearmTakesFreshSeq(t *testing.T) {
	s := New()
	var order []string
	var tm Timer
	tm.Init(s, func() { order = append(order, "timer") })
	tm.Arm(time.Millisecond)
	s.At(time.Millisecond, func() { order = append(order, "at") })
	tm.Arm(time.Millisecond)
	if s.Len() != 2 {
		t.Fatalf("Len = %d after re-arm, want 2", s.Len())
	}
	_, _, seq := tm.Record()
	if _, clock, _ := s.Clock(); seq != clock || seq != 3 {
		t.Fatalf("re-armed seq %d, clock seq %d, want 3", seq, clock)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "at" || order[1] != "timer" {
		t.Fatalf("order = %v, want [at timer]", order)
	}
}

func TestScheduleInPastClamps(t *testing.T) {
	s := New()
	var at time.Duration
	s.After(time.Second, func() {
		s.At(0, func() { at = s.Now() })
	})
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if at != time.Second {
		t.Fatalf("past-scheduled event fired at %v, want clamp to 1s", at)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	s := New()
	fired := false
	s.After(-time.Second, func() { fired = true })
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !fired || s.Now() != 0 {
		t.Fatalf("fired=%v now=%v, want fired at 0", fired, s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Millisecond
		s.At(d, func() { fired = append(fired, d) })
	}
	if err := s.RunUntil(3 * time.Millisecond); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", s.Now())
	}
	if s.Len() != 2 {
		t.Fatalf("pending = %d, want 2", s.Len())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	if err := s.RunUntil(time.Hour); err != nil {
		t.Fatalf("RunUntil: %v", err)
	}
	if s.Now() != time.Hour {
		t.Fatalf("Now = %v, want 1h", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 5 {
				s.Stop()
			}
		})
	}
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped", err)
	}
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	// Resuming after a stop drains the rest.
	if err := s.Run(); err != nil {
		t.Fatalf("resumed Run: %v", err)
	}
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
}

func TestRecursiveScheduling(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 1000 {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(0, tick)
	if err := s.Run(); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if count != 1000 {
		t.Fatalf("count = %d, want 1000", count)
	}
	if s.Now() != 999*time.Microsecond {
		t.Fatalf("Now = %v, want 999µs", s.Now())
	}
}

// TestPropertyMonotonicClock checks that for any schedule of random events,
// callbacks observe a non-decreasing clock and every event fires at its
// scheduled time.
func TestPropertyMonotonicClock(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		last := time.Duration(-1)
		ok := true
		for i := 0; i < int(n); i++ {
			at := time.Duration(rng.Intn(1000)) * time.Millisecond
			s.At(at, func() {
				if s.Now() < last {
					ok = false
				}
				if s.Now() != at {
					ok = false
				}
				last = s.Now()
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDeterminism runs the same random schedule twice and demands an
// identical firing order.
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []int {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			s.At(time.Duration(rng.Intn(50))*time.Millisecond, func() {
				order = append(order, i)
			})
		}
		if err := s.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return order
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
