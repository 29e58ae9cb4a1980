package blockdev

import (
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// Inflight-event kinds recorded by service() for snapshots.
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

// QState is the compact serializable state of a Queue. It exists only
// for "parkable" queues: elevator drained, no barrier or staged
// requests, at most one unmerged in-flight request. The fleet engine
// rolls a member forward event by event until the queue reaches such a
// point — always nearby, since anything occupying the queue completes
// within device-latency timescales.
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
	EvKind   uint8 // evComplete or evRetry when Inflight != nil
	EvAt     time.Duration
	EvSeq    uint64
}

// State captures the queue's serializable state. classify maps the
// in-flight request (if any) to an opaque callback tag; it should return
// an error for a request whose completion callback it does not own.
func (q *Queue) State(classify func(*Request) (uint8, error)) (*QState, error) {
	switch {
	case q.headBarrier != nil && q.headBarrier != q.inflight:
		return nil, fmt.Errorf("blockdev: cannot snapshot with a pending barrier")
	case len(q.staged) > 0:
		return nil, fmt.Errorf("blockdev: cannot snapshot with %d staged requests", len(q.staged))
	case q.sched.Len() > 0:
		return nil, fmt.Errorf("blockdev: cannot snapshot with %d requests in the elevator", q.sched.Len())
	}
	st := &QState{
		Seq:       q.seq,
		Stats:     q.stats,
		EverBusy:  q.everBusy,
		IdleNow:   q.idleNow,
		IdleSince: q.idleSince,
	}
	if q.pollEv != nil {
		st.HasPoll = true
		st.PollAt = q.pollEv.At()
		st.PollSeq = q.pollEv.Seq()
	}
	if r := q.inflight; r != nil {
		if len(r.mergeOf) > 0 {
			return nil, fmt.Errorf("blockdev: cannot snapshot an in-flight request carrying %d merged requests", len(r.mergeOf))
		}
		if q.inflEvKind == evNone {
			return nil, fmt.Errorf("blockdev: in-flight request has no pending event")
		}
		cb, err := classify(r)
		if err != nil {
			return nil, err
		}
		rs := &ReqState{
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
			Retries:     r.Retries,
			Seq:         r.seq,
		}
		if len(r.LSEs) > 0 {
			rs.LSEs = append([]int64(nil), r.LSEs...)
		}
		if r.Err != nil {
			me, ok := r.Err.(*disk.MediumError)
			if !ok {
				return nil, fmt.Errorf("blockdev: cannot snapshot request error %T", r.Err)
			}
			rs.ErrLBAs = append([]int64(nil), me.LBAs...)
		}
		st.Inflight = rs
		st.EvKind = q.inflEvKind
		st.EvAt = q.inflEvAt
		st.EvSeq = q.inflEvSeq
	}
	return st, nil
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
	q.inflight, q.headBarrier, q.pollEv = nil, nil, nil
	q.inflEvKind, q.inflEvAt, q.inflEvSeq = evNone, 0, 0
	clear(q.staged)
	q.staged = q.staged[:0]
	q.seq = st.Seq
	q.stats = st.Stats
	q.everBusy = st.EverBusy
	q.idleNow = st.IdleNow
	q.idleSince = st.IdleSince
	if st.HasPoll {
		ev, err := q.sim.RestoreAt(st.PollAt, st.PollSeq, q.pollFn)
		if err != nil {
			return fmt.Errorf("blockdev: restore poll event: %w", err)
		}
		q.pollEv = ev
	}
	if rs := st.Inflight; rs != nil {
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
		var fn sim.EventFunc
		switch st.EvKind {
		case evComplete:
			fn = q.completeFn
		case evRetry:
			fn = q.serviceFn
		default:
			return fmt.Errorf("blockdev: in-flight request with event kind %d", st.EvKind)
		}
		if err := q.sim.RestoreSchedule(st.EvAt, st.EvSeq, fn, r); err != nil {
			return fmt.Errorf("blockdev: restore in-flight event: %w", err)
		}
		q.inflEvKind, q.inflEvAt, q.inflEvSeq = st.EvKind, st.EvAt, st.EvSeq
	}
	return nil
}
