// Package sim provides a deterministic discrete-event simulation kernel.
//
// All simulated components in this repository (disks, I/O schedulers,
// scrubbers, trace replayers) run on a virtual clock owned by a Simulator.
// Determinism is guaranteed: events scheduled for the same instant fire in
// the order they were scheduled, and no wall-clock time or goroutine
// scheduling ever influences results. This is the substitution for the
// paper's physical testbed measurements, which a garbage-collected runtime
// could not reproduce faithfully in real time.
//
// The event loop is the hot path under every figure, policy evaluation and
// tuner sweep, so it is built for throughput. Pending events live in two
// structures: an inlined 4-ary min-heap (shallower and more cache-friendly
// than container/heap's binary heap, with no interface boxing) and an
// in-order lane, a FIFO of pooled events scheduled at or after the lane's
// tail. Trace replay schedules its look-ahead arrivals in time order, so
// they queue in the lane at O(1) and the heap holds only the few events
// scheduled out of order (device completions, timers). Both are sorted by
// (at, seq) and the kernel always fires the smaller head, so the firing
// order is exactly that of a single heap.
//
// Events take one of two owners. Schedule, At and After take an event
// from a per-Simulator free list and return it there after it fires, so
// steady-state scheduling performs zero allocations; such an event cannot
// be cancelled. A component that keeps one pending callback per role — a
// policy's threshold, a queue's poll, an in-flight completion — holds a
// Timer by value instead: the Timer owns its event, re-arming and
// disarming it in place, and records and restores it for snapshots. The
// free list is plain single-threaded memory — never a sync.Pool — so
// reuse order, and therefore everything else, is identical across hosts
// and worker counts.
package sim

import (
	"context"
	"errors"
	"time"
)

// ErrStopped is returned by Run variants when the simulation was halted by
// Stop before the run condition was met.
var ErrStopped = errors.New("sim: stopped")

// EventFunc is the callback of a pooled event: arg is the value passed to
// Schedule, now the event's firing time. Hot paths construct one
// EventFunc per component at wiring time and pass per-event state through
// arg (a pointer, so the interface conversion does not allocate),
// avoiding a closure allocation per scheduled event.
type EventFunc func(arg any, now time.Duration)

// event is one pending callback: a pooled event that the free list owns
// (Schedule, At, After) or the event a Timer owns.
type event struct {
	at     time.Duration
	seq    uint64
	fn     EventFunc
	arg    any
	index  int // heap index; -1 when in the lane or not queued
	pooled bool
}

// Simulator owns a virtual clock and an event queue. The zero value is ready
// to use and starts at time zero.
type Simulator struct {
	now     time.Duration
	q       queue //scrublint:transient events hold callbacks; components re-arm their own timers on restore
	seq     uint64
	stopped bool //scrublint:transient run-loop latch, reset by the next Run
	fired   uint64

	free []*event //scrublint:transient event free list; pooled memory is identity, not state
}

// New returns a Simulator with its clock at zero.
func New() *Simulator { return &Simulator{} }

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Len returns the number of pending events.
func (s *Simulator) Len() int { return len(s.q.heap) + len(s.q.lane) - s.q.head }

// Fired returns the number of events fired since construction: the
// denominator of the events/sec throughput metric cmd/scrubbench reports.
func (s *Simulator) Fired() uint64 { return s.fired }

// At schedules fn to run at absolute virtual time t; the past clamps to
// Now. It is Schedule with fn carried as the argument, so it cannot be
// cancelled: a component that must disarm or snapshot its pending
// callback holds a Timer instead.
func (s *Simulator) At(t time.Duration, fn func()) { s.Schedule(t, callFunc, fn) }

// After is At at d after the current virtual time. Negative d is treated
// as zero.
func (s *Simulator) After(d time.Duration, fn func()) { s.ScheduleAfter(d, callFunc, fn) }

// callFunc is the EventFunc of At events and timers: arg is the func()
// to run. A func value converts to any without allocating.
func callFunc(arg any, _ time.Duration) { arg.(func())() }

// Schedule enqueues a pooled event at absolute virtual time t (the past
// clamps to Now): fn(arg, t) fires in (time, scheduling) order, and the
// event comes from and returns to the simulator's free list, so
// steady-state scheduling allocates nothing. There is no cancellation;
// callers that need to abandon work check their own state inside fn or
// hold a Timer.
//
//scrub:hotpath
func (s *Simulator) Schedule(t time.Duration, fn EventFunc, arg any) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	ev := s.get()
	ev.at, ev.seq, ev.fn, ev.arg, ev.pooled = t, s.seq, fn, arg, true
	s.q.enqueue(ev)
}

// ScheduleAfter is Schedule at d after the current virtual time. Negative
// d is treated as zero.
//
//scrub:hotpath
func (s *Simulator) ScheduleAfter(d time.Duration, fn EventFunc, arg any) {
	if d < 0 {
		d = 0
	}
	s.Schedule(s.now+d, fn, arg)
}

// Stop halts the current Run call after the in-progress event returns.
func (s *Simulator) Stop() { s.stopped = true }

// get returns a reset event, reusing the free list when possible.
//
//scrub:hotpath
func (s *Simulator) get() *event {
	if n := len(s.free); n > 0 {
		ev := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return ev
	}
	return &event{}
}

// recycle resets a pooled event and returns it to the free list. Every
// field is cleared so no callback or argument can leak into the event's
// next use.
//
//scrub:hotpath
func (s *Simulator) recycle(ev *event) {
	*ev = event{index: -1}
	s.free = append(s.free, ev)
}

// step fires the earliest pending event. It reports false when the queue is
// empty. Pooled events are recycled before their callback runs — the
// object is already off the queue and nothing else references it — so an
// event chain (fire, schedule successor) reuses one event object
// indefinitely. A timer's event is off the queue too, so its callback
// sees the timer disarmed and may re-arm it.
//
//scrub:hotpath
func (s *Simulator) step() bool {
	ev := s.q.pop()
	if ev == nil {
		return false
	}
	s.now = ev.at
	s.fired++
	fn, arg, at := ev.fn, ev.arg, ev.at
	if ev.pooled {
		s.recycle(ev)
	}
	fn(arg, at)
	return true
}

// Run fires events until the queue is empty. It returns ErrStopped if Stop
// was called before the queue drained.
//
//scrublint:allow unusedexport e2ebench/probes.go calls it
func (s *Simulator) Run() error {
	s.stopped = false
	for !s.stopped {
		if !s.step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil fires events with timestamps <= t, then advances the clock to t.
// It returns ErrStopped if Stop was called first.
func (s *Simulator) RunUntil(t time.Duration) error {
	return s.RunUntilContext(context.Background(), t)
}

// ctxCheckInterval is how many events RunUntilContext fires between
// context checks: frequent enough that cancellation lands within
// microseconds of wall time, rare enough that the atomic load in
// Context.Err never shows up in profiles.
const ctxCheckInterval = 1024

// RunUntilContext is RunUntil with cooperative cancellation: the context
// is polled every ctxCheckInterval events, and a canceled context halts
// the run after the in-progress event returns, leaving the virtual clock
// at the last fired event. Long simulations driven by servers or CLIs
// thread their request context through here.
func (s *Simulator) RunUntilContext(ctx context.Context, t time.Duration) error {
	s.stopped = false
	fired := 0
	for !s.stopped {
		if ev := s.q.peek(); ev == nil || ev.at > t {
			if t > s.now {
				s.now = t
			}
			return nil
		}
		if fired%ctxCheckInterval == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		s.step()
		fired++
	}
	return ErrStopped
}

// The event queue is an inlined 4-ary min-heap beside an in-order lane,
// both ordered by (at, seq): a total order (seq is unique), so the pair
// pops events in exactly one sequence, and that sequence is the one a
// single binary heap (container/heap, which the 4-ary layout replaced)
// pops. The lane is a FIFO kept sorted by construction: a pooled event
// joins it only when it does not sort before the lane's tail. Timer
// events always go to the heap, so Disarm finds them by heap index.

// queue holds the pending events. lane[head:] is the lane's live part;
// the consumed prefix is reclaimed when the lane empties, or compacted
// away when an append would otherwise grow a mostly consumed array.
type queue struct {
	heap []*event
	lane []*event
	head int
}

// evLess orders events by (at, seq).
//
//scrub:hotpath
func evLess(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// enqueue adds a pooled event: to the lane's tail if it sorts there,
// otherwise to the heap.
//
//scrub:hotpath
func (q *queue) enqueue(ev *event) {
	n := len(q.lane)
	if n > q.head && evLess(ev, q.lane[n-1]) {
		q.push(ev)
		return
	}
	if n == cap(q.lane) && q.head > 0 && q.head >= n/2 {
		// At least half the array is consumed: slide the live part down
		// rather than grow, so the copy is paid for by the pops before it.
		k := copy(q.lane, q.lane[q.head:])
		clear(q.lane[k:])
		q.lane, q.head = q.lane[:k], 0
	}
	ev.index = -1
	q.lane = append(q.lane, ev)
}

// peek returns the earliest pending event, or nil.
//
//scrub:hotpath
func (q *queue) peek() *event {
	var ev *event
	if q.head < len(q.lane) {
		ev = q.lane[q.head]
	}
	if len(q.heap) > 0 && (ev == nil || evLess(q.heap[0], ev)) {
		ev = q.heap[0]
	}
	return ev
}

// pop removes and returns the earliest pending event, or nil.
//
//scrub:hotpath
func (q *queue) pop() *event {
	if q.head < len(q.lane) {
		ev := q.lane[q.head]
		if len(q.heap) == 0 || evLess(ev, q.heap[0]) {
			q.lane[q.head] = nil
			q.head++
			if q.head == len(q.lane) {
				q.lane, q.head = q.lane[:0], 0
			}
			return ev
		}
	}
	if len(q.heap) == 0 {
		return nil
	}
	return q.popHeap()
}

// push inserts ev into the heap and sifts it up.
//
//scrub:hotpath
func (q *queue) push(ev *event) {
	q.heap = append(q.heap, ev)
	ev.index = len(q.heap) - 1
	q.up(ev.index)
}

// popHeap removes and returns the heap's minimum event.
//
//scrub:hotpath
func (q *queue) popHeap() *event {
	h := q.heap
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[0].index = 0
	h[n] = nil
	q.heap = h[:n]
	if n > 1 {
		q.down(0)
	}
	ev.index = -1
	return ev
}

// remove deletes the event at heap index i.
func (q *queue) remove(i int) {
	h := q.heap
	n := len(h) - 1
	ev := h[i]
	if i != n {
		h[i] = h[n]
		h[i].index = i
	}
	h[n] = nil
	q.heap = h[:n]
	if i < n {
		if !q.down(i) {
			q.up(i)
		}
	}
	ev.index = -1
}

// up sifts the event at heap index i toward the root.
//
//scrub:hotpath
func (q *queue) up(i int) {
	h := q.heap
	ev := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(ev, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down sifts the event at heap index i toward the leaves, reporting
// whether it moved.
//
//scrub:hotpath
func (q *queue) down(i int) bool {
	h := q.heap
	n := len(h)
	ev := h[i]
	start := i
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(h[j], h[best]) {
				best = j
			}
		}
		if !evLess(h[best], ev) {
			break
		}
		h[i] = h[best]
		h[i].index = i
		i = best
	}
	h[i] = ev
	ev.index = i
	return i > start
}
