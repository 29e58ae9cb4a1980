package blockdev

import (
	"fmt"
	"time"

	"repro/internal/disk"
)

// In-flight event kinds (QState.EvKind).
const (
	evNone uint8 = iota
	evComplete
	evRetry
)

// ReqState is the serializable state of an in-flight request. Callback
// is an opaque tag the producer assigns at snapshot time and resolves at
// restore (the block layer cannot serialize an OnComplete closure).
type ReqState struct {
	Op          disk.Op
	LBA         int64
	Sectors     int64
	Class       Class
	Origin      Origin
	Tag         int
	Barrier     bool
	BypassCache bool
	ID          int64
	Callback    uint8

	Submit   time.Duration
	Dispatch time.Duration

	Collision bool
	CacheHit  bool
	LSEs      []int64
	// ErrLBAs non-empty means the request has already failed terminally
	// with a *disk.MediumError over these sectors (the completion event is
	// pending).
	ErrLBAs []int64
	Retries int
	Seq     uint64
}

// QState is the queue's live state, and gob-encoded it is the compact
// serializable state of a parked one. A queue parks only at a "parkable"
// point: elevator drained, no barrier or staged requests, at most one
// unmerged in-flight request. The fleet engine rolls a member forward
// event by event until the queue reaches such a point — always nearby,
// since anything occupying the queue completes within device-latency
// timescales. A live queue reads none of the timer records (HasPoll,
// PollAt, PollSeq, EvAt, EvSeq) nor Inflight: its two timers and the
// in-flight request hold those, and SaveState records them. EvKind is
// live: it tells the in-flight timer what to run.
type QState struct {
	Seq       uint64
	Stats     QueueStats
	EverBusy  bool
	IdleNow   bool
	IdleSince time.Duration

	HasPoll bool
	PollAt  time.Duration
	PollSeq uint64

	Inflight *ReqState
	// EvKind, EvAt and EvSeq identify the event service() last armed
	// for the in-flight request — a completion (evComplete) or a retry
	// re-service (evRetry) — so a restore can re-enqueue it at its
	// (at, seq) slot. EvKind is evNone with nothing in flight.
	EvKind uint8
	EvAt   time.Duration
	EvSeq  uint64
}

// SaveState copies the queue's state into dst, reusing dst's in-flight
// record and slices. classify maps the in-flight request (if any) to an
// opaque callback tag; it should return an error for a request whose
// completion callback it does not own.
func (q *Queue) SaveState(dst *QState, classify func(*Request) (uint8, error)) error {
	switch {
	case q.headBarrier != nil && q.headBarrier != q.inflight:
		return fmt.Errorf("blockdev: cannot snapshot with a pending barrier")
	case len(q.staged) > 0:
		return fmt.Errorf("blockdev: cannot snapshot with %d staged requests", len(q.staged))
	case q.sched.Len() > 0:
		return fmt.Errorf("blockdev: cannot snapshot with %d requests in the elevator", q.sched.Len())
	}
	r, rs := q.inflight, dst.Inflight
	if r == nil {
		*dst = q.st
		dst.HasPoll, dst.PollAt, dst.PollSeq = q.poll.Record()
		dst.Inflight, dst.EvKind, dst.EvAt, dst.EvSeq = nil, evNone, 0, 0
		return nil
	}
	if len(r.mergeOf) > 0 {
		return fmt.Errorf("blockdev: cannot snapshot an in-flight request carrying %d merged requests", len(r.mergeOf))
	}
	if q.st.EvKind == evNone {
		return fmt.Errorf("blockdev: in-flight request has no pending event")
	}
	cb, err := classify(r)
	if err != nil {
		return err
	}
	var errLBAs []int64
	if r.Err != nil {
		me, ok := r.Err.(*disk.MediumError)
		if !ok {
			return fmt.Errorf("blockdev: cannot snapshot request error %T", r.Err)
		}
		errLBAs = me.LBAs
	}
	if rs == nil {
		rs = new(ReqState)
	}
	*rs = ReqState{
		Op:          r.Op,
		LBA:         r.LBA,
		Sectors:     r.Sectors,
		Class:       r.Class,
		Origin:      r.Origin,
		Tag:         r.Tag,
		Barrier:     r.Barrier,
		BypassCache: r.BypassCache,
		ID:          r.ID,
		Callback:    cb,
		Submit:      r.Submit,
		Dispatch:    r.Dispatch,
		Collision:   r.Collision,
		CacheHit:    r.CacheHit,
		LSEs:        append(rs.LSEs[:0], r.LSEs...),
		ErrLBAs:     append(rs.ErrLBAs[:0], errLBAs...),
		Retries:     r.Retries,
		Seq:         r.seq,
	}
	*dst = q.st
	dst.HasPoll, dst.PollAt, dst.PollSeq = q.poll.Record()
	_, dst.EvAt, dst.EvSeq = q.inflightEv.Record()
	dst.Inflight = rs
	return nil
}

// RestoreState overwrites the queue with a snapshot. The queue may be
// fresh or may have run another member to any point: its in-flight
// request returns to the free list, and a barrier, staged requests and
// the poll timer are dropped (the elevator's own RestoreState drops what
// it holds). resolve maps the opaque callback tag back to the producer's
// prebuilt OnComplete. The simulator clock must already be restored, so
// that its pending events are gone and re-enqueued ones keep their
// recorded sequence numbers.
func (q *Queue) RestoreState(st *QState, resolve func(uint8) func(*Request)) error {
	if r := q.inflight; r != nil && r.pooled {
		q.putRequest(r)
	}
	q.inflight, q.headBarrier = nil, nil
	clear(q.staged)
	q.staged = q.staged[:0]
	q.st = *st
	q.st.Inflight = nil
	if err := q.poll.Restore(st.HasPoll, st.PollAt, st.PollSeq); err != nil {
		return fmt.Errorf("blockdev: restore poll event: %w", err)
	}
	rs := st.Inflight
	if rs == nil {
		q.st.EvKind = evNone
		return nil
	}
	r := q.GetRequest()
	r.Op = rs.Op
	r.LBA = rs.LBA
	r.Sectors = rs.Sectors
	r.Class = rs.Class
	r.Origin = rs.Origin
	r.Tag = rs.Tag
	r.Barrier = rs.Barrier
	r.BypassCache = rs.BypassCache
	r.ID = rs.ID
	r.Submit = rs.Submit
	r.Dispatch = rs.Dispatch
	r.Collision = rs.Collision
	r.CacheHit = rs.CacheHit
	r.Retries = rs.Retries
	r.seq = rs.Seq
	if len(rs.LSEs) > 0 {
		r.LSEs = append([]int64(nil), rs.LSEs...)
	}
	if len(rs.ErrLBAs) > 0 {
		r.Err = &disk.MediumError{Op: rs.Op, LBAs: append([]int64(nil), rs.ErrLBAs...)}
	}
	if cb := resolve(rs.Callback); cb != nil {
		r.OnComplete = cb
	} else if rs.Callback != 0 {
		return fmt.Errorf("blockdev: unresolved callback tag %d", rs.Callback)
	}
	q.inflight = r
	if r.Barrier {
		// A barrier in service still occupies the barrier slot; it is
		// released by its own completion.
		q.headBarrier = r
	}
	if st.EvKind != evComplete && st.EvKind != evRetry {
		return fmt.Errorf("blockdev: in-flight request with event kind %d", st.EvKind)
	}
	if err := q.inflightEv.Restore(true, st.EvAt, st.EvSeq); err != nil {
		return fmt.Errorf("blockdev: restore in-flight event: %w", err)
	}
	return nil
}
