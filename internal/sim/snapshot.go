// Snapshot support: the minimal kernel surface the fleet engine needs to
// park a member (serialize its state and free the memory) and hydrate it
// later with an identical trajectory. The kernel itself cannot serialize
// its event queue — events hold callbacks — so each component's State
// carries its own pending events as (at, seq) records: Pending takes the
// record of a handle event, Rearm and RestoreSchedule re-enqueue it on
// restore with its original sequence number. Because the queue is
// ordered by (at, seq) and seq values are preserved exactly, the
// restored queue pops events in exactly the order the original would
// have: determinism survives the round trip.
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
// before any Rearm or RestoreSchedule call. Pooled events return to the
// free list; a discarded handle event can no longer fire, and cancelling
// it later is a no-op. So a simulator that has run one member can be
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

// Pending returns the snapshot record of a handle event: whether it is
// armed and its (at, seq) slot in the total order. A nil handle is
// unarmed. Components keep a pending handle nil once it fires or is
// cancelled, so a non-nil handle is always queued.
func Pending(ev *Event) (armed bool, at time.Duration, seq uint64) {
	if ev == nil {
		return false, 0, 0
	}
	return true, ev.at, ev.seq
}

// Rearm is the restore side of Pending: an armed record re-enqueues fn
// at its recorded (at, seq) slot and returns the new handle; an unarmed
// one returns nil. Unlike At it does not assign a fresh sequence number:
// the event keeps its recorded position in the total order. The caller
// must have restored the clock first so that seq <= Seq(); a violation
// would let a future event collide with the restored one's tiebreaker.
func (s *Simulator) Rearm(armed bool, at time.Duration, seq uint64, fn func()) (*Event, error) {
	if !armed {
		return nil, nil
	}
	if seq == 0 || seq > s.seq {
		return nil, fmt.Errorf("sim: Rearm seq %d out of range (clock seq %d)", seq, s.seq)
	}
	ev := &Event{at: at, seq: seq, fn: fn}
	s.q.push(ev)
	return ev, nil
}

// RestoreSchedule is Rearm for pooled handle-less events: the
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
