package iosched

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
)

// CFQState is the serializable state of an empty CFQ elevator: the slice
// and idle-gate machinery plus the learned per-process queue structure
// (tags in round-robin order with their current classes). Queued
// requests are deliberately not representable — the fleet engine rolls a
// member forward until the elevator drains before snapshotting.
type CFQState struct {
	IdleGate  time.Duration
	SliceIdle time.Duration
	Slice     time.Duration

	Order   []int            // round-robin tag order
	Classes []blockdev.Class // class per Order entry

	ActiveTag      int
	HaveActive     bool
	SliceEnd       time.Duration
	IdleWaitUntil  time.Duration
	LastRTBEActive time.Duration
	InIdleService  bool
}

// State captures the elevator's serializable state. It fails while
// requests are queued: queued requests hold callbacks and pool
// identities no snapshot can carry.
func (c *CFQ) State() (*CFQState, error) {
	if n := c.Len(); n > 0 {
		return nil, fmt.Errorf("iosched: cannot snapshot a CFQ with %d queued requests", n)
	}
	st := &CFQState{
		IdleGate:       c.IdleGate,
		SliceIdle:      c.SliceIdle,
		Slice:          c.Slice,
		ActiveTag:      c.activeTag,
		HaveActive:     c.haveActive,
		SliceEnd:       c.sliceEnd,
		IdleWaitUntil:  c.idleWaitUntil,
		LastRTBEActive: c.lastRTBEActive,
		InIdleService:  c.inIdleService,
	}
	for _, q := range c.queues {
		st.Order = append(st.Order, q.tag)
		st.Classes = append(st.Classes, q.class)
	}
	return st, nil
}

// RestoreState overwrites the elevator with a snapshot, rebuilding the
// per-tag queues in their recorded round-robin order. The elevator may be
// fresh or may have run another member: requests it still holds are
// dropped, and its queue shells are reused.
func (c *CFQ) RestoreState(st *CFQState) error {
	if len(st.Order) != len(st.Classes) {
		return fmt.Errorf("iosched: malformed CFQ snapshot: %d tags, %d classes", len(st.Order), len(st.Classes))
	}
	c.IdleGate = st.IdleGate
	c.SliceIdle = st.SliceIdle
	c.Slice = st.Slice
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
	c.activeTag = st.ActiveTag
	c.haveActive = st.HaveActive
	c.sliceEnd = st.SliceEnd
	c.idleWaitUntil = st.IdleWaitUntil
	c.lastRTBEActive = st.LastRTBEActive
	c.inIdleService = st.InIdleService
	return nil
}
