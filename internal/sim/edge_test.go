package sim

// Table-driven edge tests for the event queue: behaviors that the
// property suite samples randomly but that deserve named, deterministic
// coverage — simultaneous events across pooled events and timers,
// disarming queued timers, timers discarded by RestoreClock, free-list
// health after a context cancellation aborts a run mid-flight, and lane
// compaction.

import (
	"context"
	"testing"
	"time"
)

func TestEventQueueEdgeCases(t *testing.T) {
	type step struct {
		at     time.Duration
		pooled bool // Schedule (pooled) vs a Timer
		cancel bool // disarm the timer before running
	}
	cases := []struct {
		name  string
		steps []step
		want  []int // indexes into steps, in expected firing order
	}{
		{
			name: "simultaneous pooled events fire in scheduling order",
			steps: []step{
				{at: 5 * time.Millisecond, pooled: true},
				{at: 5 * time.Millisecond, pooled: true},
				{at: 5 * time.Millisecond, pooled: true},
			},
			want: []int{0, 1, 2},
		},
		{
			name: "simultaneous mixed paths keep global scheduling order",
			steps: []step{
				{at: 3 * time.Millisecond, pooled: false},
				{at: 3 * time.Millisecond, pooled: true},
				{at: 3 * time.Millisecond, pooled: false},
				{at: 3 * time.Millisecond, pooled: true},
			},
			want: []int{0, 1, 2, 3},
		},
		{
			name: "simultaneous at time zero",
			steps: []step{
				{at: 0, pooled: true},
				{at: 0, pooled: false},
			},
			want: []int{0, 1},
		},
		{
			name: "cancel-while-queued drops only the canceled event",
			steps: []step{
				{at: 1 * time.Millisecond, pooled: false, cancel: true},
				{at: 1 * time.Millisecond, pooled: true},
				{at: 2 * time.Millisecond, pooled: false},
			},
			want: []int{1, 2},
		},
		{
			name: "cancel middle of a simultaneous group preserves order",
			steps: []step{
				{at: 4 * time.Millisecond, pooled: false},
				{at: 4 * time.Millisecond, pooled: false, cancel: true},
				{at: 4 * time.Millisecond, pooled: false},
				{at: 4 * time.Millisecond, pooled: true},
			},
			want: []int{0, 2, 3},
		},
		{
			name: "cancel everything leaves an empty run",
			steps: []step{
				{at: 1 * time.Millisecond, pooled: false, cancel: true},
				{at: 2 * time.Millisecond, pooled: false, cancel: true},
			},
			want: nil,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			var fired []int
			record := func(arg any, _ time.Duration) {
				fired = append(fired, arg.(int))
			}
			timers := make([]Timer, len(tc.steps))
			for i, st := range tc.steps {
				if st.pooled {
					s.Schedule(st.at, record, i)
				} else {
					timers[i].Init(s, func() { fired = append(fired, i) })
					timers[i].Arm(st.at)
				}
			}
			for i, st := range tc.steps {
				if st.cancel {
					if !timers[i].Armed() {
						t.Fatalf("step %d: disarming requires an armed timer", i)
					}
					timers[i].Disarm()
				}
			}
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if len(fired) != len(tc.want) {
				t.Fatalf("fired %v, want %v", fired, tc.want)
			}
			for i := range tc.want {
				if fired[i] != tc.want[i] {
					t.Fatalf("fired %v, want %v", fired, tc.want)
				}
			}
		})
	}
}

// TestPoolReuseAfterContextCancel aborts RunUntilContext mid-flight, then
// resumes on the same simulator. Events left queued at cancellation must
// stay valid (not recycled out from under the heap), and the free list
// must keep serving clean objects afterward.
func TestPoolReuseAfterContextCancel(t *testing.T) {
	s := New()
	fired := 0
	var tick EventFunc
	tick = func(_ any, _ time.Duration) {
		fired++
		s.ScheduleAfter(time.Millisecond, tick, nil)
	}
	for i := 0; i < 8; i++ {
		s.Schedule(time.Duration(i)*time.Millisecond, tick, nil)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the run aborts at its first check
	err := s.RunUntilContext(ctx, 10*time.Second)
	if err != context.Canceled {
		t.Fatalf("RunUntilContext = %v, want context.Canceled", err)
	}
	if s.Len() == 0 {
		t.Fatal("cancellation should leave the in-flight chains queued")
	}
	firedAtCancel := fired
	pausedAt := s.Now()

	// Resume without a deadline pressure: the queued chains continue from
	// the paused clock and newly scheduled pooled events reuse the free
	// list that survived the aborted run.
	done := false
	s.Schedule(pausedAt+50*time.Millisecond, func(_ any, now time.Duration) {
		done = true
		s.Stop()
	}, nil)
	if err := s.RunUntil(time.Second); err != ErrStopped {
		t.Fatalf("RunUntil = %v, want ErrStopped from the in-event Stop", err)
	}
	if !done {
		t.Fatal("post-cancel event never fired")
	}
	if fired <= firedAtCancel {
		t.Fatalf("chains did not resume: fired stuck at %d", fired)
	}
	if s.Now() < pausedAt {
		t.Fatalf("clock moved backwards across cancel: %v < %v", s.Now(), pausedAt)
	}
}

// TestPoolReuseAfterMidRunCancel cancels the context from inside an event
// callback, which exercises the abort path while the step loop is hot and
// an event has just been recycled.
func TestPoolReuseAfterMidRunCancel(t *testing.T) {
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	var tick EventFunc
	tick = func(_ any, _ time.Duration) {
		fired++
		if fired == 2000 {
			cancel()
		}
		s.ScheduleAfter(time.Microsecond, tick, nil)
	}
	s.Schedule(0, tick, nil)
	err := s.RunUntilContext(ctx, time.Hour)
	if err != context.Canceled {
		t.Fatalf("RunUntilContext = %v, want context.Canceled", err)
	}
	if fired < 2000 {
		t.Fatalf("canceled before the trigger event: fired %d", fired)
	}
	// The simulator must remain fully usable after the abort: the chain is
	// still queued and pooled events keep recycling cleanly on resume.
	target := fired + 500
	resumed := s.Now()
	if err := s.RunUntil(resumed + time.Duration(600)*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if fired < target {
		t.Fatalf("resume fired only %d events, want >= %d", fired, target)
	}
}

// TestTimerDisarmedByRestoreClock is the fleet's case: one simulator
// runs member after member, and RestoreClock discards every pending
// event. A timer that is not restored must read disarmed, disarming it
// must be a no-op, and it must arm again normally; a restored timer
// fires at its recorded slot.
func TestTimerDisarmedByRestoreClock(t *testing.T) {
	s := New()
	var fired []string
	var left, back Timer
	left.Init(s, func() { fired = append(fired, "left") })
	back.Init(s, func() { fired = append(fired, "back") })
	left.Arm(5 * time.Millisecond)
	back.Arm(7 * time.Millisecond)
	s.After(time.Millisecond, func() { fired = append(fired, "pooled") })
	_, bat, bseq := back.Record()
	now, seq, n := s.Clock()

	s.RestoreClock(now, seq, n)
	if left.Armed() || back.Armed() || s.Len() != 0 {
		t.Fatalf("after RestoreClock: left %v back %v Len %d, want all disarmed and empty",
			left.Armed(), back.Armed(), s.Len())
	}
	left.Disarm()
	if armed, _, _ := left.Record(); armed || s.Len() != 0 {
		t.Fatalf("Disarm of a discarded timer: record armed %v, Len %d", armed, s.Len())
	}
	if err := back.Restore(true, bat, bseq); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != "back" || s.Now() != 7*time.Millisecond {
		t.Fatalf("fired %v at %v, want [back] at 7ms", fired, s.Now())
	}
	left.Arm(s.Now() + time.Millisecond)
	if !left.Armed() || s.Len() != 1 {
		t.Fatalf("re-arm after discard: Armed %v Len %d", left.Armed(), s.Len())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != "left" {
		t.Fatalf("fired %v, want [back left]", fired)
	}
}

// TestTimerRestoreRangeCheck: Restore refuses seq 0 and a seq the
// restored clock has not yet assigned, and leaves the timer disarmed.
func TestTimerRestoreRangeCheck(t *testing.T) {
	s := New()
	var tm Timer
	tm.Init(s, func() {})
	s.RestoreClock(0, 4, 0)
	for _, seq := range []uint64{0, 5} {
		if err := tm.Restore(true, time.Second, seq); err == nil {
			t.Errorf("Restore with seq %d succeeded at clock seq 4", seq)
		}
		if tm.Armed() || s.Len() != 0 {
			t.Errorf("failed Restore with seq %d left the timer armed", seq)
		}
	}
	if err := tm.Restore(true, time.Second, 4); err != nil || !tm.Armed() {
		t.Fatalf("Restore with seq 4: %v, armed %v", err, tm.Armed())
	}
	// Restoring over an armed timer replaces its slot, never duplicates it.
	if err := tm.Restore(true, 2*time.Second, 3); err != nil || s.Len() != 1 {
		t.Fatalf("Restore over an armed timer: %v, Len %d", err, s.Len())
	}
	if at, seq, _ := s.NextAt(); at != 2*time.Second || seq != 3 {
		t.Fatalf("NextAt = %v/%d, want 2s/3", at, seq)
	}
}

// TestLaneCompactsUnderSustainedUse keeps the lane non-empty for many
// times its depth, as a streaming replay does, and checks that its
// backing array stays bounded by a small multiple of that depth.
func TestLaneCompactsUnderSustainedUse(t *testing.T) {
	s := New()
	const depth = 256
	var horizon time.Duration
	var arrive EventFunc
	arrive = func(_ any, _ time.Duration) {
		horizon += time.Microsecond
		s.Schedule(horizon, arrive, nil)
	}
	for i := 0; i < depth; i++ {
		horizon += time.Microsecond
		s.Schedule(horizon, arrive, nil)
	}
	for i := 0; i < 100*depth; i++ {
		s.Step()
	}
	if s.Len() != depth {
		t.Fatalf("Len = %d, want %d", s.Len(), depth)
	}
	if len(s.q.heap) != 0 {
		t.Fatalf("in-order events reached the heap: %d", len(s.q.heap))
	}
	if c := cap(s.q.lane); c > 4*depth {
		t.Fatalf("lane capacity %d grew past 4x its depth %d", c, depth)
	}
}
