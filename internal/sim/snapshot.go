// Snapshot support: the minimal kernel surface the fleet engine needs to
// park a member (serialize its state and free the memory) and hydrate it
// later with an identical trajectory. The kernel itself cannot serialize
// its event queue — events hold callbacks — so components snapshot their
// own pending events as (at, seq) pairs and re-enqueue them on restore
// with the Restore* methods below, which preserve the original sequence
// numbers. Because the queue is ordered by (at, seq) and seq values are
// preserved exactly, the restored queue pops events in exactly the order
// the original would have: determinism survives the round trip.
package sim

import (
	"fmt"
	"time"
)

// Clock returns the kernel's clock state: the current virtual time, the
// last assigned event sequence number, and the number of events fired.
// Together with each component's own (at, seq) event records this is the
// complete kernel state of an idle simulator.
//
//scrublint:snapshot Simulator
func (s *Simulator) Clock() (now time.Duration, seq, fired uint64) {
	return s.now, s.seq, s.fired
}

// RestoreClock sets the clock state captured by Clock and discards
// every pending event: restore is a rebuild, not a merge, and must run
// before any Restore* scheduling call. Pooled events return to the free
// list; a discarded handle event can no longer fire, and cancelling it
// later is a no-op. So a simulator that has run one member can be
// restored in place to another.
func (s *Simulator) RestoreClock(now time.Duration, seq, fired uint64) {
	q := &s.q
	for _, evs := range [2][]*Event{q.heap, q.lane[q.head:]} {
		for i, ev := range evs {
			evs[i] = nil
			if ev.pooled {
				s.recycle(ev)
			} else {
				ev.index, ev.cancel = -1, true
			}
		}
	}
	q.heap, q.lane, q.head = q.heap[:0], q.lane[:0], 0
	s.now, s.seq, s.fired = now, seq, fired
}

// Seq returns the sequence number most recently assigned to a scheduled
// event. Components that schedule handle-less events (Schedule) read it
// immediately after the call to record the event's identity for
// snapshotting.
func (s *Simulator) Seq() uint64 { return s.seq }

// Seq returns the event's sequence number, its tiebreaker within the
// (at, seq) total order. Snapshots store it alongside At so restore can
// reproduce the exact firing order.
func (e *Event) Seq() uint64 { return e.seq }

// RestoreAt re-enqueues a handle event captured as (at, seq) by a
// snapshot. Unlike At it does not assign a fresh sequence number: the
// event keeps its recorded position in the total order. The caller must
// have restored the clock first so that seq <= Seq(); a violation would
// let a future event collide with the restored one's tiebreaker.
func (s *Simulator) RestoreAt(at time.Duration, seq uint64, fn func()) (*Event, error) {
	if seq == 0 || seq > s.seq {
		return nil, fmt.Errorf("sim: RestoreAt seq %d out of range (clock seq %d)", seq, s.seq)
	}
	ev := &Event{at: at, seq: seq, fn: fn}
	s.q.push(ev)
	return ev, nil
}

// RestoreSchedule is RestoreAt for pooled handle-less events: the
// restored event fires fn(arg, at) at its recorded (at, seq) slot and is
// recycled afterwards, exactly like an original Schedule event.
func (s *Simulator) RestoreSchedule(at time.Duration, seq uint64, fn EventFunc, arg any) error {
	if seq == 0 || seq > s.seq {
		return fmt.Errorf("sim: RestoreSchedule seq %d out of range (clock seq %d)", seq, s.seq)
	}
	ev := s.get()
	ev.at, ev.seq, ev.afn, ev.arg, ev.pooled = at, seq, fn, arg, true
	s.q.enqueue(ev)
	return nil
}

// Step fires the earliest pending event, reporting false when the queue
// is empty. The fleet engine uses it to roll a member forward one event
// at a time until the member reaches a parkable state; firing events one
// by one is indistinguishable from a Run over the same span.
func (s *Simulator) Step() bool { return s.step() }

// NextAt returns the timestamp and sequence number of the earliest
// pending event. ok=false means the queue is empty.
func (s *Simulator) NextAt() (at time.Duration, seq uint64, ok bool) {
	ev := s.q.peek()
	if ev == nil {
		return 0, 0, false
	}
	return ev.at, ev.seq, true
}
