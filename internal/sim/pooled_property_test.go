package sim

// Property tests for the pooled Schedule path and the 4-ary heap. These
// trials interleave pooled events with func events and timers, because
// production stacks do — replays schedule pooled arrivals while policies
// and queues hold timers — and the FIFO/monotonicity invariants must hold
// across the mix no matter how events are recycled underneath.

import (
	"math/rand"
	"testing"
	"time"
)

// TestPropertyPooledFIFOAtEqualTimestamps mixes Schedule and At events on
// shared instants and checks global (time, scheduling-order) firing. Event
// reuse must never reorder ties.
func TestPropertyPooledFIFOAtEqualTimestamps(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		s := New()
		type stamp struct {
			at  time.Duration
			seq int
		}
		var fired []stamp
		counts := map[time.Duration]int{}
		n := 20 + rng.Intn(200)
		record := func(arg any, _ time.Duration) {
			fired = append(fired, *(arg.(*stamp)))
		}
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(8)) * time.Millisecond
			st := &stamp{at, counts[at]}
			counts[at]++
			if rng.Intn(2) == 0 {
				s.Schedule(at, record, st)
			} else {
				s.At(at, func() { fired = append(fired, *st) })
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if len(fired) != n {
			t.Fatalf("trial %d: fired %d of %d events", trial, len(fired), n)
		}
		for i := 1; i < len(fired); i++ {
			prev, cur := fired[i-1], fired[i]
			if cur.at < prev.at {
				t.Fatalf("trial %d: event %d fired at %v after %v", trial, i, cur.at, prev.at)
			}
			if cur.at == prev.at && cur.seq != prev.seq+1 {
				t.Fatalf("trial %d: FIFO violated at %v: seq %d after %d", trial, cur.at, cur.seq, prev.seq)
			}
		}
	}
}

// TestPropertyPooledMonotonicClock re-runs the recursive monotonicity
// property through Schedule chains, including past-targeted events that
// must clamp to Now, while events recycle through the free list.
func TestPropertyPooledMonotonicClock(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(5000 + trial)))
		s := New()
		last := time.Duration(-1)
		budget := 200
		var spawn EventFunc
		spawn = func(_ any, now time.Duration) {
			if now != s.Now() {
				t.Fatalf("trial %d: callback now %v != clock %v", trial, now, s.Now())
			}
			if s.Now() < last {
				t.Fatalf("trial %d: clock went backwards: %v after %v", trial, s.Now(), last)
			}
			last = s.Now()
			if budget <= 0 {
				return
			}
			budget--
			d := time.Duration(rng.Intn(20)-10) * time.Millisecond
			s.Schedule(s.Now()+d, spawn, nil)
		}
		for i := 0; i < 5; i++ {
			s.Schedule(time.Duration(rng.Intn(10))*time.Millisecond, spawn, nil)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPropertyHeapMatchesSortedOrder drives random schedules and verifies
// the 4-ary heap pops the exact (at, seq) total order a reference sort
// produces, with random timer disarms removed from both sides.
func TestPropertyHeapMatchesSortedOrder(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(6000 + trial)))
		s := New()
		n := 10 + rng.Intn(300)
		type sched struct {
			at       time.Duration
			id       int
			canceled bool
		}
		all := make([]*sched, n)
		var fired []int
		record := func(arg any, _ time.Duration) {
			fired = append(fired, arg.(*sched).id)
		}
		timers := make([]Timer, n)
		for i := 0; i < n; i++ {
			all[i] = &sched{at: time.Duration(rng.Intn(16)) * time.Millisecond, id: i}
			if rng.Intn(2) == 0 {
				s.Schedule(all[i].at, record, all[i])
			} else {
				st := all[i]
				timers[i].Init(s, func() { fired = append(fired, st.id) })
				timers[i].Arm(st.at)
			}
		}
		for i := 0; i < n; i++ {
			if timers[i].Armed() && rng.Intn(4) == 0 {
				timers[i].Disarm()
				all[i].canceled = true
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var want []int
		for _, sc := range all { // ids were assigned in (time, seq) schedule order
			if !sc.canceled {
				want = append(want, sc.id)
			}
		}
		// Stable sort by time; equal times keep scheduling (seq) order.
		for i := 1; i < len(want); i++ {
			for j := i; j > 0 && all[want[j]].at < all[want[j-1]].at; j-- {
				want[j], want[j-1] = want[j-1], want[j]
			}
		}
		if len(fired) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("trial %d: position %d fired id %d, want %d", trial, i, fired[i], want[i])
			}
		}
	}
}
