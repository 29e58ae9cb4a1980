package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/schedpolicy"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/trace"
)

// stackSpec is the configuration a replay job's stack is built from:
// through core.New for the untraced run, by hand from the same public
// constructors for the traced run, so timing decorators can sit on the
// trace.Source, blockdev.Scheduler and disk.Device seams.
type stackSpec struct {
	model     disk.Model
	policy    core.PolicyKind // Waiting, AR or AR+Waiting
	threshold time.Duration   // wait threshold, and AR threshold
	faults    fault.Model     // nil: no fault injection
	faultSeed int64
	obs       bool
}

// The scrubber settings core.New defaults to.
const (
	reqSectors = (64 << 10) / disk.SectorSize
	regions    = 128
)

// stack is the part of an assembled system a replay drives and reads.
type stack struct {
	sim    *sim.Simulator
	q      *blockdev.Queue
	sc     *scrub.Scrubber
	faults *fault.Injector
}

func (sp stackSpec) build() (*stack, error) {
	opts := []core.Option{
		core.WithPolicy(sp.policy),
		core.WithWaitThreshold(sp.threshold),
		core.WithARThreshold(sp.threshold),
	}
	if sp.faults != nil {
		opts = append(opts, core.WithFaults(sp.faults), core.WithFaultSeed(sp.faultSeed), core.WithAutoRepair())
	}
	if sp.obs {
		opts = append(opts, core.WithObs(obs.New()))
	}
	m := sp.model
	sys, err := core.New(&m, opts...)
	if err != nil {
		return nil, err
	}
	sys.Start()
	return &stack{sim: sys.Sim, q: sys.Queue, sc: sys.Scrubber, faults: sys.Faults}, nil
}

// assemble builds the stack build makes, in the order core.New and
// System.Start make it, with the scheduler and device wrapped by sm's
// timers. The replay's digest must come out bit for bit the same.
func (sp stackSpec) assemble(sm *seams) (*stack, error) {
	d, err := disk.New(sp.model)
	if err != nil {
		return nil, err
	}
	dev := &timedDevice{Device: d, sm: sm}
	s := sim.New()
	q := blockdev.NewQueue(s, dev, &timedSched{Scheduler: iosched.NewCFQ(), sm: sm})
	alg, err := scrub.NewStaggered(dev.Sectors(), reqSectors, regions)
	if err != nil {
		return nil, err
	}
	sc, err := scrub.New(s, q, scrub.Config{
		Algorithm:  alg,
		Class:      blockdev.ClassBE,
		Size:       scrub.FixedSize(reqSectors),
		AutoRepair: sp.faults != nil,
	})
	if err != nil {
		return nil, err
	}
	q.SetRetryPolicy(blockdev.RetryPolicy{})
	st := &stack{sim: s, q: q, sc: sc}
	if sp.faults != nil {
		st.faults = fault.NewInjector(s, dev, sp.faults, sp.faultSeed)
		st.faults.AttachQueue(q)
	}
	var pol schedpolicy.Policy
	switch sp.policy {
	case core.PolicyWaiting:
		pol = &schedpolicy.Waiting{Threshold: sp.threshold}
	case core.PolicyAR:
		pol = &schedpolicy.AR{Threshold: sp.threshold}
	case core.PolicyARWaiting:
		pol = &schedpolicy.ARWaiting{WaitThreshold: sp.threshold, ARThreshold: sp.threshold}
	default:
		return nil, fmt.Errorf("no hand-assembled stack for policy %v", sp.policy)
	}
	pol.Attach(s, q, sc)
	if st.faults != nil {
		st.faults.Start()
	}
	s.After(sp.threshold, func() {
		if q.Idle() && !sc.Firing() {
			sc.Fire()
		}
	})
	return st, nil
}

// result digests every simulated output of a finished replay.
func (st *stack) result(res *replay.Result) jobResult {
	var fs fault.Stats
	if st.faults != nil {
		fs = st.faults.Stats()
	}
	qs, ss := st.q.Stats(), st.sc.Stats()
	h := sha256.New()
	fmt.Fprintf(h, "%d|%+v|%+v|%+v|%d %d %d %v %v %v %v %v\n", st.sim.Fired(), qs, ss, fs,
		res.Requests, res.Bytes, res.Collisions, res.Span, res.RespTotal, res.RespMax, res.WaitTotal, res.WaitMax)
	return jobResult{
		digest: hex.EncodeToString(h.Sum(nil)),
		stats: simStats{
			events:     int64(st.sim.Fired()),
			scrubBytes: ss.Bytes(),
			injected:   fs.Injected,
			detected:   fs.Detected,
			fgRequests: res.Requests,
			collisions: qs.Collisions,
		},
	}
}

// seams accumulates the timing decorators' counts and self times. The
// three seams never nest (the replayer pulls records, the queue calls
// the scheduler and, separately, the device), so each span is self time.
type seams struct {
	records, srcNs             int64
	schedCalls, schedNs        int64
	nextCalls, nextEmpty       int64
	devCalls, devNs, cacheHits int64
}

type timedSource struct {
	trace.Source
	sm *seams
}

func (t *timedSource) Next(rec *trace.Record) error {
	t0 := time.Now()
	err := t.Source.Next(rec)
	t.sm.srcNs += int64(time.Since(t0))
	if err == nil {
		t.sm.records++
	}
	return err
}

// Close closes the wrapped source when it holds a file.
func (t *timedSource) Close() error { return trace.CloseSource(t.Source) }

type timedSched struct {
	blockdev.Scheduler
	sm *seams
}

func (t *timedSched) Add(r *blockdev.Request, now time.Duration) {
	t0 := time.Now()
	t.Scheduler.Add(r, now)
	t.sm.schedNs += int64(time.Since(t0))
	t.sm.schedCalls++
}

func (t *timedSched) Next(now time.Duration) (*blockdev.Request, time.Duration) {
	t0 := time.Now()
	r, wait := t.Scheduler.Next(now)
	t.sm.schedNs += int64(time.Since(t0))
	t.sm.schedCalls++
	t.sm.nextCalls++
	if r == nil {
		t.sm.nextEmpty++
	}
	return r, wait
}

func (t *timedSched) OnComplete(r *blockdev.Request, now time.Duration) {
	t0 := time.Now()
	t.Scheduler.OnComplete(r, now)
	t.sm.schedNs += int64(time.Since(t0))
	t.sm.schedCalls++
}

type timedDevice struct {
	disk.Device
	sm *seams
}

func (t *timedDevice) Service(req disk.Request, now time.Duration) (disk.Result, error) {
	t0 := time.Now()
	res, err := t.Device.Service(req, now)
	t.sm.devNs += int64(time.Since(t0))
	t.sm.devCalls++
	if res.CacheHit {
		t.sm.cacheHits++
	}
	return res, err
}

// addMetrics reports the seams as shares of busy host seconds and counts
// per replayed record; a workload without seams leaves them at 0.
func (sm *seams) addMetrics(m map[string]float64, busy float64) {
	if sm.records == 0 {
		return
	}
	busyNs, recs := busy*1e9, float64(sm.records)
	m["trace.seam_frac"] = float64(sm.srcNs) / busyNs
	m["iosched.seam_frac"] = float64(sm.schedNs) / busyNs
	m["disk.seam_frac"] = float64(sm.devNs) / busyNs
	m["iosched.calls_per_record"] = float64(sm.schedCalls) / recs
	m["disk.calls_per_record"] = float64(sm.devCalls) / recs
	if sm.nextCalls > 0 {
		m["iosched.next_empty_frac"] = float64(sm.nextEmpty) / float64(sm.nextCalls)
	}
	if sm.devCalls > 0 {
		m["disk.cache_hit_frac"] = float64(sm.cacheHits) / float64(sm.devCalls)
	}
}
