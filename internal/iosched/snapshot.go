package iosched

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
)

// CFQState is the elevator's live state, and gob-encoded it is the
// serializable state of an empty elevator: the tunables, the slice and
// idle-gate machinery, and the learned per-process queue structure (tags
// in round-robin order with their current classes). Queued requests are
// deliberately not representable — the fleet engine rolls a member
// forward until the elevator drains before snapshotting. The per-tag
// queues keep their own order; a live CFQ does not read Order or
// Classes, which SaveState fills.
type CFQState struct {
	// IdleGate is the quiet time required before Idle-class dispatch.
	IdleGate time.Duration
	// SliceIdle is the anticipation wait for a sequential process.
	SliceIdle time.Duration
	// Slice is the time-slice length for RT/BE queues.
	Slice time.Duration

	Order   []int            // round-robin tag order
	Classes []blockdev.Class // class per Order entry

	ActiveTag      int
	HaveActive     bool
	SliceEnd       time.Duration
	IdleWaitUntil  time.Duration // slice-idle deadline for the active queue
	LastRTBEActive time.Duration // last RT/BE dispatch or completion
	InIdleService  bool
}

// SaveState copies the elevator's state into dst, reusing dst's slices.
// It fails while requests are queued: queued requests hold callbacks and
// pool identities no snapshot can carry.
func (c *CFQ) SaveState(dst *CFQState) error {
	if n := c.Len(); n > 0 {
		return fmt.Errorf("iosched: cannot snapshot a CFQ with %d queued requests", n)
	}
	order, classes := dst.Order[:0], dst.Classes[:0]
	*dst = c.st
	for _, q := range c.queues {
		order = append(order, q.tag)
		classes = append(classes, q.class)
	}
	dst.Order, dst.Classes = order, classes
	return nil
}

// RestoreState overwrites the elevator with a snapshot, rebuilding the
// per-tag queues in their recorded round-robin order. The elevator may be
// fresh or may have run another member: requests it still holds are
// dropped, and its queue shells are reused.
func (c *CFQ) RestoreState(st *CFQState) error {
	if len(st.Order) != len(st.Classes) {
		return fmt.Errorf("iosched: malformed CFQ snapshot: %d tags, %d classes", len(st.Order), len(st.Classes))
	}
	c.st = *st
	c.st.Order, c.st.Classes = nil, nil
	c.queued = [3]int{}
	shells := c.queues
	c.queues = c.queues[:0]
	for i, tag := range st.Order {
		if c.index(tag) >= 0 {
			return fmt.Errorf("iosched: malformed CFQ snapshot: duplicate tag %d", tag)
		}
		var q *cfqQueue
		if i < len(shells) {
			q = shells[i]
			clear(q.sorted)
			q.sorted = q.sorted[:0]
		} else {
			q = &cfqQueue{}
		}
		q.tag, q.class = tag, st.Classes[i]
		c.queues = append(c.queues, q)
	}
	return nil
}
