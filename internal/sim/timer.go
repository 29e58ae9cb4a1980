package sim

import (
	"fmt"
	"time"
)

// Timer is one pending callback that a component owns: a policy's
// threshold, a queue's poll, a device's in-flight completion. The
// component holds the Timer by value, one per role, and calls Init once
// at wiring time; arming, disarming and re-arming then reuse the Timer's
// own event, so they allocate nothing. The queue points into the Timer,
// so a Timer must not be copied once initialised.
//
// Arm assigns the next sequence number exactly as Schedule does, and
// re-arming an armed Timer is a removal plus a fresh arming, so a Timer
// fires in the same (at, seq) slot as the cancel-and-reschedule it
// replaces. The zero Timer is disarmed; Disarm and Armed are safe on it.
type Timer struct {
	s  *Simulator
	ev event
}

// Init binds the timer to a simulator and its callback. Call it once,
// before the timer is first armed.
func (t *Timer) Init(s *Simulator, fn func()) {
	t.s = s
	t.ev = event{fn: callFunc, arg: fn, index: -1}
}

// Armed reports whether the timer is pending. A timer reads disarmed
// inside its own callback, after Disarm, and after RestoreClock
// discarded it.
func (t *Timer) Armed() bool { return t.s != nil && t.ev.index >= 0 }

// Arm schedules the callback at absolute virtual time at, replacing any
// pending arming. The past clamps to Now.
//
//scrub:hotpath
func (t *Timer) Arm(at time.Duration) {
	s := t.s
	if t.ev.index >= 0 {
		s.q.remove(t.ev.index)
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	t.ev.at, t.ev.seq = at, s.seq
	s.q.push(&t.ev)
}

// Disarm removes a pending arming. Disarming a timer that is not armed
// is a no-op.
//
//scrub:hotpath
func (t *Timer) Disarm() {
	if t.Armed() {
		t.s.q.remove(t.ev.index)
	}
}

// Record returns the timer's snapshot record: whether it is armed and
// its (at, seq) slot in the total order.
func (t *Timer) Record() (armed bool, at time.Duration, seq uint64) {
	if !t.Armed() {
		return false, 0, 0
	}
	return true, t.ev.at, t.ev.seq
}

// Restore is the other side of Record: it disarms the timer and, for an
// armed record, re-arms it at the recorded (at, seq) slot. Unlike Arm it
// assigns no fresh sequence number, so the event keeps its position in
// the total order. The simulator clock must be restored first so that
// seq <= the clock's seq; a violation would let a future event collide
// with the restored one's tiebreaker.
func (t *Timer) Restore(armed bool, at time.Duration, seq uint64) error {
	t.Disarm()
	if !armed {
		return nil
	}
	if t.s == nil {
		return fmt.Errorf("sim: restore of a timer with no simulator")
	}
	if seq == 0 || seq > t.s.seq {
		return fmt.Errorf("sim: timer seq %d out of range (clock seq %d)", seq, t.s.seq)
	}
	t.ev.at, t.ev.seq = at, seq
	t.s.q.push(&t.ev)
	return nil
}
