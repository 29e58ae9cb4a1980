package blockdev

import (
	"errors"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// QueueStats aggregates per-origin accounting.
type QueueStats struct {
	Submitted  [2]int64 // indexed by origin-1
	Completed  [2]int64
	Bytes      [2]int64
	Collisions int64 // foreground requests arriving during scrub service

	// Error-path accounting (see RetryPolicy).
	MediumErrors   int64 // medium-error service attempts, retries included
	Retries        int64 // re-services after a medium error
	RetryExhausted int64 // requests failed after spending the retry budget
	Timeouts       int64 // requests failed because the next retry would
	// overrun the per-request timeout
}

// RetryPolicy bounds how the queue reacts to medium errors (typed
// *disk.MediumError failures from READ/VERIFY over a latent sector
// error). The zero value is the historical behaviour: no retries, the
// first medium error completes the request with Request.Err set.
//
// With MaxRetries > 0 the device is held busy across retries — real
// drives perform error recovery in-device, so the request stays inflight
// and each attempt pays full mechanical service time plus Backoff.
type RetryPolicy struct {
	// MaxRetries is the number of re-services after the initial failure.
	MaxRetries int
	// Backoff is the pause between a failed attempt and the next.
	Backoff time.Duration
	// Timeout caps the total time from dispatch: a retry that would begin
	// after Dispatch+Timeout is abandoned and the request fails with a
	// timeout accounted. Zero means no cap.
	Timeout time.Duration
}

// Queue is the block-layer request queue for one device. It owns the
// dispatch loop: requests enter through Submit, pass through the elevator
// (or the barrier path), and are serviced by the disk one at a time.
type Queue struct {
	st QState // live state; the in-flight request and poll timer are recorded by SaveState

	sim   *sim.Simulator //scrublint:transient wiring, supplied at construction
	dev   disk.Device    //scrublint:transient wiring, supplied at construction
	sched Scheduler      //scrublint:transient wiring, supplied at construction

	inflight *Request //scrublint:transient recorded as Inflight by SaveState

	// Barrier machinery: the head barrier waits for the elevator to
	// drain; requests submitted after it stage until it completes.
	headBarrier *Request   //scrublint:transient SaveState refuses a queue with a barrier pending
	staged      []*Request //scrublint:transient SaveState refuses a queue with a barrier pending

	// held is the block layer's request count that blockdev.queue_depth
	// reports: the elevator's requests (those merged into another no
	// longer count), the staged ones, the barrier slot and the device,
	// so a barrier in service counts twice, in its slot and on the
	// device. An instrumented queue keeps it as requests move, sparing
	// the per-request Scheduler.Len call; an uninstrumented one leaves
	// it alone.
	held int64 //scrublint:transient RestoreState recounts it from the restored in-flight request

	// inflightEv is the in-flight request's pending completion or retry
	// re-service, as st.EvKind says; poll is the scheduler's re-poll.
	// SaveState records both.
	inflightEv sim.Timer
	poll       sim.Timer

	idleSubs     []func(now time.Duration)
	submitSubs   []func(r *Request)
	completeSubs []func(r *Request)

	retry RetryPolicy //scrublint:transient configuration, supplied by SetRetryPolicy

	// freeReqs is the request free list behind GetRequest. Like the
	// simulator's event pool it is plain single-threaded memory, keyed to
	// this queue, so reuse order is deterministic.
	freeReqs []*Request //scrublint:transient request free list; pooled memory is identity, not state

	// Observability instruments (nil when uninstrumented). A nil obsColl
	// short-circuits every observability hook in the hot path with a
	// single branch when no registry is attached.
	obsDepth   *obs.Gauge
	obsWait    [2]*obs.Histogram // queueing delay by origin-1
	obsColl    *obs.Counter
	obsMedErr  *obs.Counter
	obsRetries *obs.Counter
	obsExhaust *obs.Counter
	obsTimeout *obs.Counter
	obsTrace   *obs.Ring
}

// NewQueue builds a Queue over a simulator, disk and elevator.
func NewQueue(s *sim.Simulator, d disk.Device, sched Scheduler) *Queue {
	q := &Queue{sim: s, dev: d, sched: sched}
	q.inflightEv.Init(s, q.fireInflight)
	q.poll.Init(s, q.dispatch)
	return q
}

// GetRequest returns a zeroed Request from the queue's free list. Pooled
// requests are recycled automatically once their completion (OnComplete
// and subscriber callbacks included) has fully run; the producer must not
// retain the pointer past its OnComplete. Producers that keep requests
// alive longer (or own preallocated arrays, like the trace replayer)
// simply construct Requests themselves and never touch the pool.
//
//scrub:hotpath
func (q *Queue) GetRequest() *Request {
	if n := len(q.freeReqs); n > 0 {
		r := q.freeReqs[n-1]
		q.freeReqs[n-1] = nil
		q.freeReqs = q.freeReqs[:n-1]
		return r
	}
	return &Request{pooled: true}
}

// putRequest resets a pooled request and returns it to the free list.
//
//scrub:hotpath
func (q *Queue) putRequest(r *Request) {
	r.reset()
	q.freeReqs = append(q.freeReqs, r)
}

// Disk returns the underlying device.
func (q *Queue) Disk() disk.Device { return q.dev }

// SetRetryPolicy installs the medium-error retry policy. It applies to
// requests dispatched after the call; the default (zero) policy fails
// requests on the first medium error.
func (q *Queue) SetRetryPolicy(p RetryPolicy) { q.retry = p }

// Stats returns a copy of the accumulated statistics.
func (q *Queue) Stats() QueueStats { return q.st.Stats }

// Inflight returns the request currently on the device, or nil.
func (q *Queue) Inflight() *Request { return q.inflight }

// Pending returns the number of queued (not yet dispatched) requests.
func (q *Queue) Pending() int {
	n := q.sched.Len() + len(q.staged)
	if q.headBarrier != nil {
		n++
	}
	return n
}

// Idle reports whether the device is idle with nothing queued.
func (q *Queue) Idle() bool { return q.inflight == nil && q.Pending() == 0 }

// Quiesced reports whether the block layer is at a snapshot-able point:
// elevator and staging area empty, and any barrier slot occupied only by
// the request currently in service. At most the one in-flight request
// remains, which a snapshot can carry.
func (q *Queue) Quiesced() bool {
	return len(q.staged) == 0 && q.sched.Len() == 0 &&
		(q.headBarrier == nil || q.headBarrier == q.inflight)
}

// SubscribeIdle registers fn to run whenever the device transitions to
// idle (nothing in flight, nothing dispatchable). Scrub scheduling
// policies subscribe here.
func (q *Queue) SubscribeIdle(fn func(now time.Duration)) {
	q.idleSubs = append(q.idleSubs, fn)
}

// SubscribeSubmit registers fn to run on every Submit, before scheduling.
func (q *Queue) SubscribeSubmit(fn func(r *Request)) {
	q.submitSubs = append(q.submitSubs, fn)
}

// SubscribeComplete registers fn to run on every completion.
func (q *Queue) SubscribeComplete(fn func(r *Request)) {
	q.completeSubs = append(q.completeSubs, fn)
}

// Instrument attaches the block layer to a metrics registry: a queue
// depth gauge (in flight + queued), per-origin queueing-delay histograms
// (blockdev.wait_time.{foreground,scrub}), a collision counter and
// submit/dispatch/complete trace events. A nil reg is a no-op.
func (q *Queue) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	q.obsDepth = reg.Gauge("blockdev.queue_depth")
	q.obsWait[Foreground-1] = reg.Histogram("blockdev.wait_time.foreground")
	q.obsWait[Scrub-1] = reg.Histogram("blockdev.wait_time.scrub")
	q.obsColl = reg.Counter("blockdev.collisions")
	q.obsMedErr = reg.Counter("blockdev.medium_errors")
	q.obsRetries = reg.Counter("blockdev.retries")
	q.obsExhaust = reg.Counter("blockdev.retry_exhausted")
	q.obsTimeout = reg.Counter("blockdev.timeouts")
	q.obsTrace = reg.Trace()
}

// Submit enqueues a request at the current virtual time.
//
//scrub:hotpath
func (q *Queue) Submit(r *Request) {
	now := q.sim.Now()
	r.Submit = now
	q.st.Seq++
	r.seq = q.st.Seq
	if r.Origin == Scrub || r.Origin == Foreground {
		q.st.Stats.Submitted[r.Origin-1]++
	}
	// Collision accounting: a foreground request arriving to find the
	// disk busy with a scrub request (the paper's definition).
	if r.Origin == Foreground && q.inflight != nil && q.inflight.Origin == Scrub {
		r.Collision = true
		q.st.Stats.Collisions++
		if q.obsColl != nil {
			q.obsColl.Inc()
		}
	}
	if q.obsColl != nil {
		q.obsTrace.Emit(now, "blockdev", "submit", r.LBA, r.Sectors)
	}
	for _, fn := range q.submitSubs {
		fn(r)
	}

	switch {
	case q.headBarrier != nil:
		// A barrier is pending: everything later stages behind it.
		q.staged = append(q.staged, r)
	case r.Barrier:
		q.headBarrier = r
	default:
		q.sched.Add(r, now)
	}
	if q.obsColl != nil {
		if !r.absorbed {
			q.held++
		}
		q.obsDepth.Set(q.held)
	}
	q.dispatch()
}

// dispatch tries to start the next request on the device.
//
//scrub:hotpath
func (q *Queue) dispatch() {
	if q.inflight != nil {
		return
	}
	now := q.sim.Now()

	// The head barrier runs once the elevator has drained.
	if q.headBarrier != nil && q.sched.Len() == 0 {
		if q.obsColl != nil {
			q.held++ // on the device, and still in its slot
		}
		q.start(q.headBarrier, now)
		return
	}

	r, wake := q.sched.Next(now)
	if r != nil {
		q.start(r, now)
		return
	}
	// Nothing dispatchable. Arrange a re-poll if the scheduler asked for
	// one (e.g. CFQ's idle gate or slice-idle timer).
	if wake > now {
		q.poll.Arm(wake)
	} else {
		q.poll.Disarm()
	}
	q.markIdleIfSo(now)
}

// markIdleIfSo fires the idle hook on a busy->idle transition.
func (q *Queue) markIdleIfSo(now time.Duration) {
	if q.inflight != nil {
		return
	}
	// "Idle" from the device's perspective: nothing in flight. Requests
	// may be parked in the elevator (CFQ idle class waiting for its
	// gate); the device is still physically idle then.
	if !q.st.EverBusy || q.st.IdleNow {
		return
	}
	q.st.IdleNow = true
	q.st.IdleSince = now
	for _, fn := range q.idleSubs {
		fn(now)
	}
}

// start puts a request on the device.
//
//scrub:hotpath
func (q *Queue) start(r *Request, now time.Duration) {
	q.inflight = r
	q.st.EverBusy = true
	q.st.IdleNow = false
	r.Dispatch = now
	if q.obsColl != nil {
		if r.Origin == Scrub || r.Origin == Foreground {
			q.obsWait[r.Origin-1].Observe(now - r.Submit)
		}
		q.obsTrace.Emit(now, "blockdev", "dispatch", r.LBA, r.Sectors)
	}
	q.service(r, now)
}

// service runs one device attempt for the inflight request at virtual
// time at. Medium errors consume the retry budget: the device stays busy
// (drive-internal error recovery), each attempt pays full mechanical
// service time, and attempts are spaced by the policy's backoff. A spent
// budget or an overrun timeout completes the request with Err set.
//
//scrub:hotpath
func (q *Queue) service(r *Request, at time.Duration) {
	res, err := q.dev.Service(disk.Request{
		Op:          r.Op,
		LBA:         r.LBA,
		Sectors:     r.Sectors,
		BypassCache: r.BypassCache,
	}, at)
	r.CacheHit = res.CacheHit
	r.LSEs = res.LSEs
	if err != nil {
		var me *disk.MediumError
		if !errors.As(err, &me) {
			// Requests are validated by producers; an out-of-range request
			// here is a programming error in the simulation, not a runtime
			// condition to degrade on.
			panic(err)
		}
		q.st.Stats.MediumErrors++
		q.obsMedErr.Inc()
		if q.obsColl != nil {
			q.obsTrace.Emit(at, "blockdev", "medium_error", me.First(), int64(len(me.LBAs)))
		}
		next := res.Done + q.retry.Backoff
		canRetry := r.Retries < q.retry.MaxRetries
		timedOut := q.retry.Timeout > 0 && next-r.Dispatch > q.retry.Timeout
		if canRetry && !timedOut {
			r.Retries++
			q.st.Stats.Retries++
			q.obsRetries.Inc()
			q.st.EvKind = evRetry
			q.inflightEv.Arm(next)
			return
		}
		r.Err = me
		if canRetry && timedOut {
			q.st.Stats.Timeouts++
			q.obsTimeout.Inc()
		} else {
			q.st.Stats.RetryExhausted++
			q.obsExhaust.Inc()
		}
	}
	q.st.EvKind = evComplete
	q.inflightEv.Arm(res.Done)
}

// fireInflight is the in-flight timer's body: the completion or the
// retry re-service of the request on the device.
//
//scrub:hotpath
func (q *Queue) fireInflight() {
	if q.st.EvKind == evRetry {
		q.service(q.inflight, q.sim.Now())
	} else {
		q.complete(q.inflight, q.sim.Now())
	}
}

// complete finishes a request and continues the dispatch loop.
//
//scrub:hotpath
func (q *Queue) complete(r *Request, now time.Duration) {
	q.inflight = nil
	q.st.EvKind = evNone
	r.Done = now
	if r.Origin == Scrub || r.Origin == Foreground {
		q.st.Stats.Completed[r.Origin-1]++
		q.st.Stats.Bytes[r.Origin-1] += r.Bytes()
	}
	if q.obsColl != nil {
		q.obsTrace.Emit(now, "blockdev", "complete", r.LBA, r.Sectors)
		q.held--
		q.obsDepth.Set(q.held)
		if r == q.headBarrier {
			q.held-- // out of its slot
		}
	}
	if r == q.headBarrier {
		q.headBarrier = nil
		q.flushStaged()
	} else {
		q.sched.OnComplete(r, now)
	}
	// Completion callbacks run before the next dispatch so that
	// synchronous producers (scrubber threads, closed-loop workloads) can
	// submit their next request and have it considered immediately.
	if r.OnComplete != nil {
		r.OnComplete(r)
	}
	for _, fn := range q.completeSubs {
		fn(r)
	}
	for _, m := range r.mergeOf {
		m.absorbed = false
		m.Dispatch = r.Dispatch
		m.Done = now
		m.CacheHit = r.CacheHit
		// A carrier failure fails its absorbed requests too; detected LSEs
		// stay on the carrier, which covers the merged extent.
		m.Err = r.Err
		if m.Origin == Scrub || m.Origin == Foreground {
			// The carrier's byte count already covers absorbed sectors;
			// only the completion count needs the merged requests.
			q.st.Stats.Completed[m.Origin-1]++
		}
		if m.OnComplete != nil {
			m.OnComplete(m)
		}
		for _, fn := range q.completeSubs {
			fn(m)
		}
	}
	// Pool-owned requests go back to the free list now that every
	// completion callback (the request's own, the subscribers', and those
	// of any absorbed requests) has run; nothing in the queue references
	// them past this point.
	for _, m := range r.mergeOf {
		if m.pooled {
			q.putRequest(m)
		}
	}
	if r.pooled {
		q.putRequest(r)
	}
	q.dispatch()
}

// flushStaged releases requests staged behind a completed barrier, up to
// (and installing) the next barrier if one exists.
func (q *Queue) flushStaged() {
	now := q.sim.Now()
	i := 0
	for ; i < len(q.staged); i++ {
		r := q.staged[i]
		if r.Barrier {
			q.headBarrier = r
			i++
			break
		}
		q.sched.Add(r, now)
		if r.absorbed && q.obsColl != nil {
			q.held--
		}
	}
	q.staged = append(q.staged[:0], q.staged[i:]...)
}
