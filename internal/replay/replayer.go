package replay

import (
	"io"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Replayer re-issues trace records against a queue open-loop: each record
// is submitted at its original arrival time regardless of how the device
// is keeping up, exactly as the paper replays the SNIA traces
// (Section IV-C). When the source declares an address space different
// from the target disk's, LBAs are scaled onto the disk.
//
// RunSource takes records either from an in-memory slice (a
// *trace.SliceSource) or from any streaming trace.Source: the slice path
// pre-schedules every arrival and keeps per-request response arrays,
// while the streaming path holds only a bounded look-ahead window of
// scheduled arrivals and aggregates metrics on the fly, so a
// multi-ten-GB trace replays in constant memory.
//
// A Replayer owns preallocated request and result buffers that are
// reused across RunSource calls: after a warm-up run, the steady-state
// replay path (arrival event, submit, dispatch, disk service,
// completion) performs zero allocations per record —
// TestReplayHotPathSteadyStateAllocs pins this down. Consequently the
// slices inside a returned Result alias the Replayer's buffers and are
// only valid until the next RunSource on the same Replayer.
type Replayer struct {
	// Class is the I/O priority class of replayed requests (default BE).
	Class blockdev.Class
	// Window bounds the streaming look-ahead: how many arrivals RunSource
	// keeps scheduled ahead of the clock (default defaultWindow). The
	// slice path ignores it.
	Window int

	sim *sim.Simulator
	q   *blockdev.Queue

	responses []float64 // seconds, indexed by submission position
	waits     []float64 // seconds, queueing delay, same indexing
	reqs      []blockdev.Request
	pending   int
	submitted int64

	// arriveFn/doneFn are the arrive/done method values, bound once per
	// Replayer so that scheduling and completing a replayed request
	// allocates no closures; per-record state travels through the
	// preallocated request (ID = record index).
	arriveFn sim.EventFunc
	doneFn   func(*blockdev.Request)

	// Streaming-path state. Requests are individually allocated (pointer
	// stability: the queue holds them while in flight) and recycled
	// through freeReqs, so the steady state allocates nothing; the pool
	// only grows when the device falls behind the open-loop arrivals.
	src          trace.Source
	srcErr       error
	srcEOF       bool
	start        time.Duration
	lastArrival  time.Duration
	scaleFrom    int64
	target       int64
	freeReqs     []*blockdev.Request
	respTotal    float64
	respMax      float64
	waitTotal    float64
	waitMax      float64
	streamFn     sim.EventFunc
	streamDoneFn func(*blockdev.Request)
	// rec is refillOne's decode scratch: passing a stack variable's
	// address through the Source interface would force a heap escape on
	// every record.
	rec trace.Record
}

// defaultWindow is the streaming look-ahead depth: deep enough that the
// simulator never runs out of known arrivals between refills, shallow
// enough that a 10M+ record replay holds only thousands of records in
// memory. Arrivals are scheduled in time order, so the window queues in
// the simulator's in-order lane rather than its heap.
const defaultWindow = 4096

// arrive submits one replayed request at its original arrival time.
//
//scrub:hotpath
func (rp *Replayer) arrive(arg any, _ time.Duration) {
	rp.pending++
	rp.q.Submit(arg.(*blockdev.Request))
}

// done records a replayed request's response and wait times.
//
//scrub:hotpath
func (rp *Replayer) done(r *blockdev.Request) {
	resp := r.ResponseTime().Seconds()
	wait := r.WaitTime().Seconds()
	rp.responses[r.ID] = resp
	rp.waits[r.ID] = wait
	// Aggregates accumulate in completion order, exactly like streamDone,
	// so a streaming replay of the same trace reproduces them bit for bit
	// (summation order matters in float64).
	rp.respTotal += resp
	if resp > rp.respMax {
		rp.respMax = resp
	}
	rp.waitTotal += wait
	if wait > rp.waitMax {
		rp.waitMax = wait
	}
	rp.pending--
}

// Result carries the foreground metrics of a replay.
type Result struct {
	Requests   int64
	Bytes      int64
	Collisions int64
	// Responses holds per-request response times in seconds, indexed by
	// the request's position in the trace. The streaming path (RunSource
	// over a non-slice source) leaves it nil and fills the aggregate
	// fields instead.
	Responses []float64
	// Waits holds per-request queueing delays (dispatch minus submit) in
	// seconds, same indexing — the paper's slowdown measure. Nil on the
	// streaming path.
	Waits []float64
	Span  time.Duration

	// Aggregate metrics, filled on every path: totals and maxima of the
	// per-request response and wait times, in seconds. On the slice path
	// they equal the reductions of Responses/Waits exactly.
	RespTotal float64
	RespMax   float64
	WaitTotal float64
	WaitMax   float64
}

// CDF returns the response-time distribution. It is nil for streaming
// replays, which do not retain per-request samples.
func (r *Result) CDF() *stats.CDF {
	if r.Responses == nil {
		return nil
	}
	return stats.NewCDF(r.Responses)
}

// MeanResponse returns the mean response time in seconds.
func (r *Result) MeanResponse() float64 {
	// Prefer the aggregate: both paths accumulate it in completion order,
	// so bulk and streaming replays of one trace agree bit for bit.
	if r.Requests > 0 {
		return r.RespTotal / float64(r.Requests)
	}
	if r.Responses != nil {
		return stats.Mean(r.Responses)
	}
	return 0
}

// MeanWait returns the mean queueing delay in seconds.
func (r *Result) MeanWait() float64 {
	if r.Requests > 0 {
		return r.WaitTotal / float64(r.Requests)
	}
	if r.Waits != nil {
		return stats.Mean(r.Waits)
	}
	return 0
}

// CollisionRate returns the fraction of requests that arrived during a
// scrub request's service.
func (r *Result) CollisionRate() float64 {
	if r.Requests == 0 {
		return 0
	}
	return float64(r.Collisions) / float64(r.Requests)
}

// MeanSlowdownVs returns the mean per-request slowdown of this run against
// a baseline run of the same trace (typically scrubber-free), capturing
// queueing cascades: slowdown_i = resp_i - base_i.
func (r *Result) MeanSlowdownVs(base *Result) time.Duration {
	n := len(r.Responses)
	if len(base.Responses) < n {
		n = len(base.Responses)
	}
	if n == 0 {
		return 0
	}
	total := 0.0
	for i := 0; i < n; i++ {
		d := r.Responses[i] - base.Responses[i]
		if d > 0 {
			total += d
		}
	}
	return time.Duration(total / float64(n) * float64(time.Second))
}

// MaxSlowdownVs returns the worst per-request slowdown against a baseline.
func (r *Result) MaxSlowdownVs(base *Result) time.Duration {
	n := len(r.Responses)
	if len(base.Responses) < n {
		n = len(base.Responses)
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		if d := r.Responses[i] - base.Responses[i]; d > worst {
			worst = d
		}
	}
	return time.Duration(worst * float64(time.Second))
}

// RunSource replays a trace.Source through the queue until every record
// completes. A *trace.SliceSource (what Trace.Source and NewSliceSource
// produce) takes the bulk path: all arrivals pre-scheduled, per-request
// response arrays in the Result. Any other source takes the streaming
// path: a bounded window of look-ahead arrivals, aggregate-only metrics,
// constant memory regardless of trace length.
//
// diskSectors is the source's address space for LBA scaling; when <= 0
// it is taken from src.DiskSectors() (parser sources that learn the
// extent as they scan should be given it explicitly or replayed from a
// cache, which knows it up front).
func (rp *Replayer) RunSource(s *sim.Simulator, q *blockdev.Queue, src trace.Source, diskSectors int64) (*Result, error) {
	if diskSectors <= 0 {
		diskSectors = src.DiskSectors()
	}
	if ss, ok := src.(*trace.SliceSource); ok {
		return rp.runBulk(s, q, ss.Records(), diskSectors)
	}
	return rp.runStream(s, q, src, diskSectors)
}

// runBulk is the slice-source path: pre-schedule every arrival, keep
// per-request metrics.
//
//scrub:hotpath
func (rp *Replayer) runBulk(s *sim.Simulator, q *blockdev.Queue, records []trace.Record, diskSectors int64) (*Result, error) {
	rp.sim, rp.q = s, q
	if rp.Class == 0 {
		rp.Class = blockdev.ClassBE
	}
	if rp.arriveFn == nil {
		rp.arriveFn = rp.arrive
		rp.doneFn = rp.done
	}
	rp.respTotal, rp.respMax, rp.waitTotal, rp.waitMax = 0, 0, 0, 0
	rp.responses = growZeroed(rp.responses, len(records))
	rp.waits = growZeroed(rp.waits, len(records))
	if cap(rp.reqs) < len(records) {
		rp.reqs = make([]blockdev.Request, len(records))
	}
	rp.reqs = rp.reqs[:len(records)]
	target := q.Disk().Sectors()
	start := s.Now()
	for i := range records {
		rec := &records[i]
		lba, n := rec.LBA, rec.Sectors
		if diskSectors > 0 && diskSectors != target {
			lba = int64(float64(lba) / float64(diskSectors) * float64(target))
		}
		if lba+n > target {
			if n > target {
				n = target
			}
			lba = target - n
		}
		op := disk.OpRead
		if rec.Write {
			op = disk.OpWrite
		}
		req := &rp.reqs[i]
		*req = blockdev.Request{
			Op:         op,
			LBA:        lba,
			Sectors:    n,
			Class:      rp.Class,
			Origin:     blockdev.Foreground,
			Tag:        ForegroundTag,
			ID:         int64(i),
			OnComplete: rp.doneFn,
		}
		s.Schedule(start+rec.Arrival, rp.arriveFn, req)
	}
	rp.submitted = int64(len(records))
	// Run to the last arrival, then drain outstanding foreground requests.
	// A plain Run would never return while a scrubber keeps generating
	// events, so the drain steps the clock in small increments until the
	// last response lands.
	end := start
	if len(records) > 0 {
		end += records[len(records)-1].Arrival
	}
	if err := s.RunUntil(end); err != nil {
		return nil, err
	}
	for rp.pending > 0 {
		if err := s.RunUntil(s.Now() + 10*time.Millisecond); err != nil {
			return nil, err
		}
	}
	st := q.Stats()
	res := &Result{
		Requests:   rp.submitted,
		Bytes:      st.Bytes[blockdev.Foreground-1],
		Collisions: st.Collisions,
		Responses:  rp.responses,
		Waits:      rp.waits,
		Span:       s.Now() - start,
		RespTotal:  rp.respTotal,
		RespMax:    rp.respMax,
		WaitTotal:  rp.waitTotal,
		WaitMax:    rp.waitMax,
	}
	return res, nil
}

// streamArrive submits one streaming request and refills the look-ahead
// window. The refill happens before the submit so a same-instant
// successor arrival keeps its place ahead of this submit's queue events.
//
//scrub:hotpath
func (rp *Replayer) streamArrive(arg any, _ time.Duration) {
	rp.refillOne()
	rp.pending++
	rp.q.Submit(arg.(*blockdev.Request))
}

// streamDone aggregates a streaming request's metrics and recycles it.
//
//scrub:hotpath
func (rp *Replayer) streamDone(r *blockdev.Request) {
	resp := r.ResponseTime().Seconds()
	wait := r.WaitTime().Seconds()
	rp.respTotal += resp
	if resp > rp.respMax {
		rp.respMax = resp
	}
	rp.waitTotal += wait
	if wait > rp.waitMax {
		rp.waitMax = wait
	}
	rp.pending--
	rp.freeReqs = append(rp.freeReqs, r) //scrublint:allow poolsafe replayer-owned request (new(Request), never from the queue pool); freeReqs is its recycle point
}

// refillOne pulls the next record from the source and schedules its
// arrival. Source errors latch into rp.srcErr and stop the refill; EOF
// latches into rp.srcEOF.
//
//scrub:hotpath
func (rp *Replayer) refillOne() {
	if rp.srcEOF || rp.srcErr != nil {
		return
	}
	rec := &rp.rec
	if err := rp.src.Next(rec); err != nil {
		if err == io.EOF {
			rp.srcEOF = true
		} else {
			rp.srcErr = err
			rp.sim.Stop()
		}
		return
	}
	lba, n := rec.LBA, rec.Sectors
	if rp.scaleFrom > 0 && rp.scaleFrom != rp.target {
		lba = int64(float64(lba) / float64(rp.scaleFrom) * float64(rp.target))
	}
	if lba+n > rp.target {
		if n > rp.target {
			n = rp.target
		}
		lba = rp.target - n
	}
	op := disk.OpRead
	if rec.Write {
		op = disk.OpWrite
	}
	var req *blockdev.Request
	if k := len(rp.freeReqs); k > 0 {
		req = rp.freeReqs[k-1]
		rp.freeReqs[k-1] = nil
		rp.freeReqs = rp.freeReqs[:k-1]
	} else {
		req = new(blockdev.Request)
	}
	*req = blockdev.Request{
		Op:         op,
		LBA:        lba,
		Sectors:    n,
		Class:      rp.Class,
		Origin:     blockdev.Foreground,
		Tag:        ForegroundTag,
		ID:         rp.submitted,
		OnComplete: rp.streamDoneFn,
	}
	rp.submitted++
	rp.lastArrival = rec.Arrival
	rp.sim.Schedule(rp.start+rec.Arrival, rp.streamFn, req)
}

// runStream replays a streaming source with a bounded look-ahead window.
func (rp *Replayer) runStream(s *sim.Simulator, q *blockdev.Queue, src trace.Source, diskSectors int64) (*Result, error) {
	rp.sim, rp.q, rp.src = s, q, src
	if rp.Class == 0 {
		rp.Class = blockdev.ClassBE
	}
	if rp.streamFn == nil {
		rp.streamFn = rp.streamArrive
		rp.streamDoneFn = rp.streamDone
	}
	window := rp.Window
	if window <= 0 {
		window = defaultWindow
	}
	rp.srcErr, rp.srcEOF = nil, false
	rp.submitted, rp.pending = 0, 0
	rp.respTotal, rp.respMax, rp.waitTotal, rp.waitMax = 0, 0, 0, 0
	rp.scaleFrom, rp.target = diskSectors, q.Disk().Sectors()
	rp.start = s.Now()
	rp.lastArrival = 0

	for i := 0; i < window && !rp.srcEOF && rp.srcErr == nil; i++ {
		rp.refillOne()
	}
	// Chase the window forward: every RunUntil fires the arrivals known so
	// far, and each arrival schedules one more, pushing lastArrival out.
	for {
		end := rp.start + rp.lastArrival
		if err := s.RunUntil(end); err != nil && rp.srcErr == nil {
			return nil, err
		}
		if rp.srcErr != nil {
			rp.src = nil
			return nil, rp.srcErr
		}
		// Recompute the horizon: arrivals fired inside RunUntil refill the
		// window and push lastArrival past the end captured above. Breaking
		// on the stale value would anchor the drain grid short of the last
		// arrival and skew Span off the bulk path's.
		if rp.srcEOF && s.Now() >= rp.start+rp.lastArrival {
			break
		}
	}
	for rp.pending > 0 {
		if err := s.RunUntil(s.Now() + 10*time.Millisecond); err != nil {
			return nil, err
		}
	}
	rp.src = nil
	st := q.Stats()
	return &Result{
		Requests:   rp.submitted,
		Bytes:      st.Bytes[blockdev.Foreground-1],
		Collisions: st.Collisions,
		Span:       s.Now() - rp.start,
		RespTotal:  rp.respTotal,
		RespMax:    rp.respMax,
		WaitTotal:  rp.waitTotal,
		WaitMax:    rp.waitMax,
	}, nil
}

// growZeroed returns s resized to n with every element zeroed, reusing the
// backing array when it is large enough. The explicit zeroing matters: a
// reused buffer must not carry response times from a previous replay into
// a run that errors out early.
func growZeroed(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
