package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestPropertyFIFOAtEqualTimestamps schedules randomized batches of events
// on a handful of distinct instants and checks that, at each instant,
// events fire in the order they were scheduled. This is the invariant the
// parallel experiment runner's determinism proof rests on.
func TestPropertyFIFOAtEqualTimestamps(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := New()
		type stamp struct {
			at  time.Duration
			seq int // scheduling order within the instant
		}
		var fired []stamp
		counts := map[time.Duration]int{}
		n := 20 + rng.Intn(200)
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(8)) * time.Millisecond
			seq := counts[at]
			counts[at]++
			st := stamp{at, seq}
			s.At(at, func() { fired = append(fired, st) })
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

// TestPropertyMonotonicClockRecursive runs randomized schedules —
// including events that schedule more events, possibly "in the past" —
// and checks the virtual clock never moves backwards.
func TestPropertyMonotonicClockRecursive(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		s := New()
		last := time.Duration(-1)
		check := func() {
			if s.Now() < last {
				t.Fatalf("trial %d: clock went backwards: %v after %v", trial, s.Now(), last)
			}
			last = s.Now()
		}
		var spawn func()
		budget := 200
		spawn = func() {
			check()
			if budget <= 0 {
				return
			}
			budget--
			// Half the rescheduling targets lie before Now; At must clamp
			// them so they fire next, not rewind the clock.
			d := time.Duration(rng.Intn(20)-10) * time.Millisecond
			s.At(s.Now()+d, spawn)
		}
		for i := 0; i < 5; i++ {
			s.At(time.Duration(rng.Intn(10))*time.Millisecond, spawn)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		check()
	}
}

// TestPropertyCancel randomly disarms timers before and after they
// fire: disarmed timers must never run, post-fire disarms must be
// no-ops, and everything else must run exactly once.
func TestPropertyCancel(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(2000 + trial)))
		s := New()
		n := 20 + rng.Intn(100)
		ran := make([]int, n)
		timers := make([]Timer, n)
		canceledEarly := make([]bool, n)
		for i := 0; i < n; i++ {
			timers[i].Init(s, func() { ran[i]++ })
			timers[i].Arm(time.Duration(rng.Intn(10)) * time.Millisecond)
		}
		// Disarm a random subset before running.
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				timers[i].Disarm()
				canceledEarly[i] = true
				if timers[i].Armed() {
					t.Fatalf("trial %d: timer %d still armed after Disarm", trial, i)
				}
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		// Disarm after fire: must not un-run anything or panic.
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				timers[i].Disarm()
			}
		}
		for i := 0; i < n; i++ {
			want := 1
			if canceledEarly[i] {
				want = 0
			}
			if ran[i] != want {
				t.Fatalf("trial %d: timer %d ran %d times, want %d (disarmed=%v)",
					trial, i, ran[i], want, canceledEarly[i])
			}
			if timers[i].Armed() {
				t.Fatalf("trial %d: timer %d armed after the queue drained", trial, i)
			}
		}
	}
}

// TestPropertyCancelDuringRun disarms timers from inside other timers'
// callbacks — the way policies disarm their own timers mid-simulation —
// and checks disarmed timers never fire.
func TestPropertyCancelDuringRun(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		s := New()
		n := 50
		ran := make([]bool, n)
		canceled := make([]bool, n)
		timers := make([]Timer, n)
		for i := 0; i < n; i++ {
			timers[i].Init(s, func() {
				ran[i] = true
				// Disarm a random later timer.
				j := i + 1 + rng.Intn(n)
				if j < n && !canceled[j] {
					timers[j].Disarm()
					canceled[j] = true
				}
			})
			timers[i].Arm(time.Duration(i) * time.Millisecond)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if canceled[i] && ran[i] {
				t.Fatalf("trial %d: timer %d ran after being disarmed", trial, i)
			}
			if !canceled[i] && !ran[i] {
				t.Fatalf("trial %d: timer %d never ran", trial, i)
			}
		}
	}
}
