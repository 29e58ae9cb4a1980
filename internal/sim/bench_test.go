package sim

// Benchmark and allocation guards for the event queue, the innermost loop
// of every simulation. The pooled Schedule path must stay allocation-free
// in steady state, and so must arming, disarming and firing a Timer.

import (
	"testing"
	"time"
)

// churn keeps `width` self-perpetuating event chains alive until total
// events have fired, exercising push/pop under a realistic queue depth.
func churn(s *Simulator, width, total int) {
	fired := 0
	var tick EventFunc
	tick = func(_ any, _ time.Duration) {
		fired++
		if fired < total {
			s.ScheduleAfter(time.Microsecond*time.Duration(1+fired%7), tick, nil)
		}
	}
	for i := 0; i < width; i++ {
		s.ScheduleAfter(time.Microsecond, tick, nil)
	}
	if err := s.Run(); err != nil {
		panic(err)
	}
}

// BenchmarkEventQueue measures one scheduled-and-fired event at a queue
// depth of 512 chains with random delays, so most events take the 4-ary
// heap rather than the in-order lane.
func BenchmarkEventQueue(b *testing.B) {
	b.Run("pooled", func(b *testing.B) {
		s := New()
		b.ReportAllocs()
		b.ResetTimer()
		churn(s, 512, b.N)
	})
	b.Run("timer", func(b *testing.B) {
		s := New()
		n := 0
		timers := make([]Timer, 512)
		for i := range timers {
			tm := &timers[i]
			tm.Init(s, func() {
				n++
				if n < b.N {
					tm.Arm(s.Now() + time.Microsecond*time.Duration(1+n%7))
				}
			})
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range timers {
			timers[i].Arm(time.Microsecond)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkEventQueueInOrder measures one fired event under the shape a
// streaming trace replay gives the queue: a 4096-deep window of arrivals
// scheduled in time order (each arrival schedules the next at the end of
// the window) plus a few out-of-order completions a little after the
// current instant. The arrivals queue in the in-order lane; the heap holds
// only the completions.
func BenchmarkEventQueueInOrder(b *testing.B) {
	s := New()
	var horizon time.Duration
	n := 0
	done := func(any, time.Duration) {}
	var arrive EventFunc
	arrive = func(_ any, now time.Duration) {
		n++
		horizon += time.Microsecond * time.Duration(1+n%5)
		s.Schedule(horizon, arrive, nil)
		if n%4 == 0 {
			s.Schedule(now+time.Microsecond*time.Duration(1+n%3), done, nil)
		}
	}
	for i := 0; i < 4096; i++ {
		horizon += time.Microsecond * time.Duration(1+i%5)
		s.Schedule(horizon, arrive, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// TestEventQueueZeroAlloc pins the pooled path's allocation budget as a
// plain test so it runs on every `go test ./...`: once the free list is
// warm, scheduling and firing events allocates nothing.
func TestEventQueueZeroAlloc(t *testing.T) {
	s := New()
	churn(s, 64, 4096) // warm the free list past the chain width
	// The tick closure is built once, outside the measured region, so the
	// measurement covers only Schedule + heap churn + firing.
	fired, quota := 0, 0
	var tick EventFunc
	tick = func(_ any, _ time.Duration) {
		fired++
		if fired < quota {
			s.ScheduleAfter(time.Microsecond*time.Duration(1+fired%7), tick, nil)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		fired, quota = 0, 512
		for i := 0; i < 64; i++ {
			s.ScheduleAfter(time.Microsecond, tick, nil)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Schedule/fire allocates %.1f allocs/run, want 0", allocs)
	}
}

// TestTimerZeroAlloc pins a Timer's arm, disarm, re-arm and fire cycle
// at zero allocations: the timer owns its event, so a policy that arms
// at every idle period and disarms at every arrival allocates nothing.
func TestTimerZeroAlloc(t *testing.T) {
	s := New()
	fired := 0
	var tm Timer
	tm.Init(s, func() { fired++ })
	tm.Arm(time.Millisecond) // grow the heap once, outside the measurement
	tm.Disarm()
	allocs := testing.AllocsPerRun(100, func() {
		tm.Arm(s.Now() + time.Millisecond)
		tm.Disarm()
		tm.Arm(s.Now() + 2*time.Millisecond)
		if !s.Step() {
			t.Fatal("armed timer did not fire")
		}
	})
	if allocs != 0 {
		t.Fatalf("Timer arm/disarm/arm/fire allocates %.1f allocs/run, want 0", allocs)
	}
	if fired != 101 {
		t.Fatalf("fired %d times, want 101", fired)
	}
}
