// Snapshot support: the minimal kernel surface the fleet engine needs to
// park a member (serialize its state and free the memory) and hydrate it
// later with an identical trajectory. The kernel itself cannot serialize
// its event queue — events hold callbacks — so each component keeps every
// event a snapshot must carry in a Timer it owns, and its State carries
// each timer as an (at, seq) record: Timer.Record takes it, and
// Timer.Restore re-arms the timer with its original sequence number.
// Because the queue is ordered by (at, seq) and seq values are preserved
// exactly, the restored queue pops events in exactly the order the
// original would have: determinism survives the round trip. A pooled
// event (Schedule, At, After) has no record, so a component that parks
// holds none.
package sim

import "time"

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
// before any Timer.Restore call. Pooled events return to the free list;
// a discarded timer reads disarmed, and disarming it is a no-op. So a
// simulator that has run one member can be restored in place to another.
func (s *Simulator) RestoreClock(now time.Duration, seq, fired uint64) {
	q := &s.q
	for _, evs := range [2][]*event{q.heap, q.lane[q.head:]} {
		for i, ev := range evs {
			evs[i] = nil
			if ev.pooled {
				s.recycle(ev)
			} else {
				ev.index = -1
			}
		}
	}
	q.heap, q.lane, q.head = q.heap[:0], q.lane[:0], 0
	s.now, s.seq, s.fired = now, seq, fired
}

// Step fires the earliest pending event, reporting false when the queue
// is empty. The fleet engine uses it to roll a member forward one event
// at a time until the member reaches a parkable state; firing events one
// by one is indistinguishable from a Run over the same span.
func (s *Simulator) Step() bool { return s.step() }
