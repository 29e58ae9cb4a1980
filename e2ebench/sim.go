package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/replay"
	"repro/internal/trace"
)

// simWorkload is a simulator workload: a set-up that writes its inputs
// and returns its jobs, and the traced run's workload-specific probe.
type simWorkload struct {
	name  string
	setup func(dir string, seed int64, sc scale) ([]*job, error)
	probe func(jobs []*job, budget float64, m map[string]float64) error
}

// job is one simulation a user would run: build a stack, run it, read its
// outputs.
type job struct {
	simS float64 // simulated device-seconds the job covers
	// run executes the job, untraced when sm is nil, and returns a digest
	// of every simulated output.
	run func(sm *seams) (jobResult, error)
	ref string // the first untraced run's digest, which every later run must reproduce

	// What the traced run's probes rebuild the job from; one is set.
	replay   *replayJob
	campaign *fleetCampaign
}

type jobResult struct {
	digest string
	stats  simStats
}

// simStats are a job's simulated counts.
type simStats struct {
	events, scrubBytes, injected, detected, fgRequests, collisions int64
}

func (s *simStats) add(o simStats) {
	s.events += o.events
	s.scrubBytes += o.scrubBytes
	s.injected += o.injected
	s.detected += o.detected
	s.fgRequests += o.fgRequests
	s.collisions += o.collisions
}

// digestOf combines the jobs' reference digests into the workload's
// output digest for one seed, the value digests.json pins.
func digestOf(jobs []*job) string {
	h := sha256.New()
	for _, j := range jobs {
		io.WriteString(h, j.ref)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// reference gives a job its reference digest from an untraced run, if
// it has none yet.
func (j *job) reference() error {
	if j.ref != "" {
		return nil
	}
	r, err := j.run(nil)
	if err != nil {
		return err
	}
	j.ref = r.digest
	return nil
}

// inputs writes the workload's inputs into a fresh dir and returns its
// jobs, none of them run yet.
func (w *simWorkload) inputs(dir string, seed int64, sc scale) ([]*job, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	jobs, err := w.setup(dir, seed, sc)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return jobs, nil
}

// setupOnce writes the inputs and runs every job once for its reference
// digest.
func (w *simWorkload) setupOnce(dir string, seed int64, sc scale) ([]*job, error) {
	jobs, err := w.inputs(dir, seed, sc)
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		if err := j.reference(); err != nil {
			return nil, err
		}
	}
	return jobs, nil
}

// prepare runs the set-up reps times and times each, rescaled to the
// reference speed: writing the inputs and warming up on the first job.
func (w *simWorkload) prepare(cfg config, hs *hostSpeed, reps int) ([]*job, []float64, error) {
	var jobs []*job
	var setup []float64
	hs.sample()
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		js, err := w.inputs(filepath.Join(cfg.workDir(), "inputs"), cfg.seed, cfg.scale())
		if err != nil {
			return nil, nil, err
		}
		if err := js[0].reference(); err != nil {
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		secs := elapsed(t0)
		hs.sample()
		setup = append(setup, secs/hs.slowdownBefore(hs.next()-1))
		jobs = js
	}
	return jobs, setup, nil
}

// checkPin completes the jobs' reference digests and compares their
// combined digest with the one pinned for this seed, if any.
func (w *simWorkload) checkPin(cfg config, jobs []*job, log io.Writer) (bool, error) {
	for _, j := range jobs {
		if err := j.reference(); err != nil {
			return false, err
		}
	}
	got := digestOf(jobs)
	if pin, ok := pinned(w.name, cfg.seed, cfg.smoke); ok && pin != got {
		fmt.Fprintf(log, "%s seed %d: output digest %s differs from the pinned %s\n", w.name, cfg.seed, got, pin)
		return false, nil
	}
	return true, nil
}

func (w *simWorkload) run(cfg config, log io.Writer) (*outcome, error) {
	reps := cfg.scale().setups
	if cfg.traced {
		reps = 1
	}
	var hs hostSpeed
	jobs, setup, err := w.prepare(cfg, &hs, reps)
	if err != nil {
		return nil, err
	}
	o := &outcome{correct: true, setup: setup}
	if cfg.traced {
		if err := w.traced(cfg, jobs, o, log); err != nil {
			return nil, err
		}
	} else {
		ph := runJobs(jobs, nil, &hs, cfg.seconds, o, log)
		o.latP50, o.latP90 = quantile(ph.scaled, 0.50), quantile(ph.scaled, 0.90)
		o.workPerS = float64(ph.stats.events) / sum(ph.scaled)
		o.rssMB = procRSSMB("self")
		fmt.Fprintf(log, "%s: the host ran %.3f times slower than the reference on average; each job's time is rescaled by the kernel samples around it\n", w.name, hs.slowdown())
	}
	ok, err := w.checkPin(cfg, jobs, log)
	if err != nil {
		return nil, err
	}
	o.correct = o.correct && ok
	return o, nil
}

// phase is what one stretch of back-to-back jobs measured.
type phase struct {
	times  []float64 // host seconds per job, in run order
	scaled []float64 // the same rescaled to the reference speed (with a hostSpeed only)
	simS   float64
	stats  simStats
}

// runJobs runs the jobs round-robin, traced when sm is non-nil, until
// seconds of host time have passed, counting each job as one attempted
// operation and a job whose outputs differ from its reference as failed.
// A traced run needs every job's reference beforehand. With hs set (and
// sampled at least once), the calibration kernel runs between jobs every
// calEvery and once more at the end, and each job's time is rescaled by
// the samples before and after it.
func runJobs(jobs []*job, sm *seams, hs *hostSpeed, seconds float64, o *outcome, log io.Writer) phase {
	var ph phase
	var after []int // per job, the index of the first kernel sample taken after it
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		j := jobs[i%len(jobs)]
		if hs != nil {
			hs.tick()
			after = append(after, hs.next())
		}
		t0 := time.Now()
		r, err := j.run(sm)
		ph.times = append(ph.times, elapsed(t0))
		ph.simS += j.simS
		ph.stats.add(r.stats)
		o.attempted++
		if err == nil && j.ref == "" && sm == nil {
			j.ref = r.digest // the job's first untraced run is its reference
		}
		if err != nil || r.digest != j.ref {
			o.failed++
			o.correct = false
			if err == nil {
				err = fmt.Errorf("output digest %s, want %s", r.digest, j.ref)
			}
			fmt.Fprintf(log, "job %d: %v\n", i%len(jobs), err)
		}
	}
	if hs != nil {
		hs.sample()
		for i, t := range ph.times {
			ph.scaled = append(ph.scaled, t/hs.slowdownBefore(after[i]))
		}
	}
	return ph
}

// traced is the per-layer pass: a plain stretch of jobs under the CPU
// profile, which gives the CPU time, allocations and layer shares; for the
// replay workloads, a stretch with timed seams, which gives the seam
// metrics and, against the plain stretch, the timers' overhead; then the
// workload's own probe. The timed stretch runs under a CPU profile too, so
// both stretches pay the profiler alike.
func (w *simWorkload) traced(cfg config, jobs []*job, o *outcome, log io.Writer) error {
	m := map[string]float64{}
	o.layers = m
	profPath := filepath.Join(cfg.workDir(), cfg.workload+".cpu.pprof")
	var plain phase
	usage, err := measureProcess(profPath, func() { plain = runJobs(jobs, nil, nil, 0.35*cfg.seconds, o, log) })
	if err != nil {
		return err
	}
	if err := addShares(profPath, m); err != nil {
		return err
	}
	n := float64(len(plain.times))
	m["cpu_ns_per_op"] = usage.cpuNs / n
	m["go.allocs_per_op"] = usage.mallocs / n
	m["go.alloc_bytes_per_op"] = usage.allocBytes / n
	m["go.gc_cycles"] = usage.gcCycles

	st := plain.stats
	m["sim.events_per_sim_s"] = float64(st.events) / plain.simS
	m["scrub.mb_per_sim_s"] = float64(st.scrubBytes) / 1e6 / plain.simS
	m["fault.injected"] = float64(st.injected) / n
	m["fault.detected"] = float64(st.detected) / n
	if st.fgRequests > 0 {
		m["blockdev.collision_frac"] = float64(st.collisions) / float64(st.fgRequests)
	}

	if jobs[0].replay == nil {
		return w.probe(jobs, 0.3*cfg.seconds, m) // no seams to time
	}
	for _, j := range jobs {
		if err := j.reference(); err != nil {
			return err
		}
	}
	sm := &seams{}
	var tr phase
	timedProf := filepath.Join(cfg.workDir(), cfg.workload+".timed.cpu.pprof")
	if _, err := measureProcess(timedProf, func() { tr = runJobs(jobs, sm, nil, 0.35*cfg.seconds, o, log) }); err != nil {
		return err
	}
	m["trace_overhead_frac"] = meanByJob(tr, len(jobs))/meanByJob(plain, len(jobs)) - 1
	sm.addMetrics(m, sum(tr.times))
	return w.probe(jobs, 0.3*cfg.seconds, m)
}

// meanByJob is the mean over jobs of each job's mean host time, so two
// phases that stopped at different points of the round-robin compare the
// same mix of jobs.
func meanByJob(ph phase, njobs int) float64 {
	tot := make([]float64, njobs)
	cnt := make([]float64, njobs)
	for i, t := range ph.times {
		tot[i%njobs] += t
		cnt[i%njobs]++
	}
	mean, k := 0.0, 0.0
	for i := range tot {
		if cnt[i] > 0 {
			mean += tot[i] / cnt[i]
			k++
		}
	}
	return mean / k
}

// usage is what one measured stretch of the process consumed.
type usage struct {
	cpuNs, mallocs, allocBytes, gcCycles float64
}

// measureProcess runs fn under a CPU profile written to profPath and
// returns the process's CPU time, allocations and GC cycles over it.
func measureProcess(profPath string, fn func()) (usage, error) {
	f, err := os.Create(profPath)
	if err != nil {
		return usage{}, err
	}
	defer f.Close()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPUNs()
	if err := pprof.StartCPUProfile(f); err != nil {
		return usage{}, err
	}
	fn()
	pprof.StopCPUProfile()
	cpu1 := processCPUNs()
	runtime.ReadMemStats(&ms1)
	if err := f.Close(); err != nil {
		return usage{}, err
	}
	return usage{
		cpuNs:      float64(cpu1 - cpu0),
		mallocs:    float64(ms1.Mallocs - ms0.Mallocs),
		allocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc),
		gcCycles:   float64(ms1.NumGC - ms0.NumGC),
	}, nil
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := fill(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// splitSegments cuts a trace into consecutive segments of span seg and
// hands each to fn with arrivals rebased to the segment's first record,
// the way the MSR decoder rebases a file's timestamps.
func splitSegments(src trace.Source, seg time.Duration, fn func(k int, recs []trace.Record) error) error {
	var recs []trace.Record
	k := 0
	flush := func() error {
		if len(recs) == 0 {
			return nil
		}
		for i := len(recs) - 1; i >= 0; i-- {
			recs[i].Arrival -= recs[0].Arrival
		}
		err := fn(k, recs)
		recs = recs[:0]
		return err
	}
	var rec trace.Record
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			return err
		}
		if seg*time.Duration(k+1) <= rec.Arrival {
			if err := flush(); err != nil {
				return err
			}
			k = int(rec.Arrival / seg)
		}
		recs = append(recs, rec)
	}
}

// replayJob replays one trace segment through a fresh stack.
type replayJob struct {
	spec    stackSpec
	open    func() (trace.Source, error)
	sectors int64 // the segment's address space (0: the source knows it)
	records int64
	span    time.Duration // last arrival; the first is at 0
	// spanLimit, when set, bounds the replay's span as a multiple of the
	// trace's: the replay must keep up with the trace, since a backlog
	// that never drains makes host time depend on the window length.
	spanLimit float64
}

func (rj *replayJob) job() *job {
	return &job{simS: rj.span.Seconds(), run: rj.run, replay: rj}
}

func (rj *replayJob) run(sm *seams) (jobResult, error) {
	src, err := rj.open()
	if err != nil {
		return jobResult{}, err
	}
	defer trace.CloseSource(src)
	var st *stack
	if sm == nil {
		st, err = rj.spec.build()
	} else {
		st, err = rj.spec.assemble(sm)
		src = &timedSource{Source: src, sm: sm}
	}
	if err != nil {
		return jobResult{}, err
	}
	res, err := (&replay.Replayer{}).RunSource(st.sim, st.q, src, rj.sectors)
	if err != nil {
		return jobResult{}, err
	}
	if res.Requests != rj.records {
		return jobResult{}, fmt.Errorf("replayed %d of %d records", res.Requests, rj.records)
	}
	if rj.spanLimit > 0 && float64(res.Span) > rj.spanLimit*float64(rj.span) {
		return jobResult{}, fmt.Errorf("replay span %v exceeds %v x the trace span %v", res.Span, rj.spanLimit, rj.span)
	}
	return st.result(res), nil
}

// upliftScale stretches TPCdisk66's inter-arrival gaps so its offered load
// (about 712 req/s raw) stays below what the modelled drive serves.
const upliftScale = 4

var replayBusy = &simWorkload{
	name: "replay-busy",
	setup: func(dir string, seed int64, sc scale) ([]*job, error) {
		tpc, ok := trace.ByName("TPCdisk66")
		if !ok {
			return nil, fmt.Errorf("catalog has no TPCdisk66")
		}
		total := time.Duration(sc.replaySegs) * sc.replaySeg
		up, err := trace.Uplift(tpc.Source(seed, total/upliftScale), trace.UpliftOptions{
			Profile: trace.ProfileHDD300, TimeScale: upliftScale, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		spec := stackSpec{model: disk.HitachiUltrastar15K450(), policy: core.PolicyWaiting, threshold: 100 * time.Millisecond}
		var jobs []*job
		err = splitSegments(up, sc.replaySeg, func(k int, recs []trace.Record) error {
			path := filepath.Join(dir, fmt.Sprintf("tpc-%02d.csv", k))
			err := writeFile(path, func(w io.Writer) error {
				return trace.WriteMSR(w, trace.NewSliceSource("", 0, recs), "tpcc", 66)
			})
			if err != nil {
				return err
			}
			rj := &replayJob{
				spec:      spec,
				sectors:   trace.ProfileHDD300.Sectors,
				records:   int64(len(recs)),
				span:      recs[len(recs)-1].Arrival,
				spanLimit: 1.05,
				open: func() (trace.Source, error) {
					return trace.OpenMSR(path, trace.MSROptions{DiskNumber: -1})
				},
			}
			jobs = append(jobs, rj.job())
			return nil
		})
		return jobs, err
	},
	probe: ladderProbe,
}

// scrub-idle keeps only the trace windows whose foreground load, in
// requests per second, lies in [idleLoadMin, idleLoadMax]. MSRsrc11's idle
// gaps are heavy-tailed (CoV 21.7): a 75 s window holds anywhere from no
// request to ten thousand, and a seed's first hour may carry a third more
// or less load than another's, which moved the job latencies with the
// seed. Set-up generates scale.idleScan of the trace, a whole day at full
// scale so every seed's set-up does the same work, and keeps its first
// scale.idleSegs windows in that band (over 300 seeds a day held 114 to
// 218 of them).
const (
	idleLoadMin = 33.3
	idleLoadMax = 60.0
)

var scrubIdle = &simWorkload{
	name: "scrub-idle",
	setup: func(dir string, seed int64, sc scale) ([]*job, error) {
		src11, ok := trace.ByName("MSRsrc11")
		if !ok {
			return nil, fmt.Errorf("catalog has no MSRsrc11")
		}
		lo, hi := int(idleLoadMin*sc.idleSeg.Seconds()), int(idleLoadMax*sc.idleSeg.Seconds())
		var jobs []*job
		kept := 0
		err := splitSegments(src11.Source(seed, sc.idleScan), sc.idleSeg, func(_ int, recs []trace.Record) error {
			if kept == sc.idleSegs || len(recs) < lo || len(recs) > hi {
				return nil
			}
			path := filepath.Join(dir, fmt.Sprintf("src11-%03d.cache", kept))
			kept++
			if _, err := trace.BuildCache(path, trace.NewSliceSource("MSRsrc11", src11.DiskSectors, recs)); err != nil {
				return err
			}
			for _, pol := range []core.PolicyKind{core.PolicyWaiting, core.PolicyAR, core.PolicyARWaiting} {
				rj := &replayJob{
					spec: stackSpec{
						model: disk.DemoSmall(), policy: pol, threshold: 100 * time.Millisecond,
						faults: fault.Uniform{RatePerHour: 60}, faultSeed: seed,
					},
					records: int64(len(recs)),
					span:    recs[len(recs)-1].Arrival,
					open: func() (trace.Source, error) {
						return trace.OpenCache(path)
					},
				}
				jobs = append(jobs, rj.job())
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if kept < sc.idleSegs {
			return nil, fmt.Errorf("%v of MSRsrc11 hold %d windows of %v at %v-%v req/s, want %d",
				sc.idleScan, kept, sc.idleSeg, idleLoadMin, idleLoadMax, sc.idleSegs)
		}
		return jobs, nil
	},
	probe: ladderProbe,
}

// fleetCampaign is one fleet-sweep job: a sharded campaign over the two
// policy classes of the repository's fleet sweeps.
type fleetCampaign struct {
	cfg     fleet.Config
	drives  int
	horizon time.Duration
}

// fleetClasses splits drives between the fixed-delay/sequential and the
// waiting/staggered classes of the repository's fleet sweeps.
func fleetClasses(drives int) []fleet.MemberClass {
	m := disk.DemoSmall()
	return []fleet.MemberClass{
		{Name: "fixed", Count: drives - drives/2, Config: core.Config{
			Model: &m, Algorithm: core.Sequential, Policy: core.PolicyFixedDelay,
			Delay: 200 * time.Millisecond, ReqBytes: 256 << 10, AutoRepair: true,
			Faults: fault.Uniform{RatePerHour: 2},
		}},
		{Name: "waiting", Count: drives / 2, Config: core.Config{
			Model: &m, Algorithm: core.Staggered, Regions: 64, Policy: core.PolicyWaiting,
			WaitThreshold: 50 * time.Millisecond, ReqBytes: 256 << 10, AutoRepair: true,
			Faults: fault.Uniform{RatePerHour: 2},
		}},
	}
}

func (fc fleetCampaign) run() (*fleet.Report, error) {
	e, err := fleet.New(fc.cfg, fleetClasses(fc.drives))
	if err != nil {
		return nil, err
	}
	return e.Run(context.Background(), fc.horizon)
}

func (fc fleetCampaign) job() *job {
	return &job{
		simS:     float64(fc.drives) * fc.horizon.Seconds(),
		campaign: &fc,
		run: func(*seams) (jobResult, error) {
			rep, err := fc.run()
			if err != nil {
				return jobResult{}, err
			}
			return fleetResult(rep, true)
		},
	}
}

// fleetResult digests a fleet report; withObs includes the merged member
// metrics, which only instrumented campaigns have.
func fleetResult(rep *fleet.Report, withObs bool) (jobResult, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%d %v %d %d %d %d %d %d %d %d %d %d %d %d %v %v %v\n",
		rep.Members, rep.Horizon, rep.ScrubbedBytes, rep.Passes, rep.LSEsFound, rep.LSEsRepaired,
		rep.Escalations, rep.FgRequests, rep.Collisions, rep.Events, rep.LSEsInjected,
		rep.LSEsDetected, rep.LSEsRemapped, rep.DetectionTime, rep.ScrubMBps, rep.DetectionRatio, rep.MeanTTD)
	if withObs {
		if err := rep.Obs.WriteJSON(h); err != nil {
			return jobResult{}, err
		}
	}
	return jobResult{
		digest: hex.EncodeToString(h.Sum(nil)),
		stats: simStats{
			events: rep.Events, scrubBytes: rep.ScrubbedBytes, injected: rep.LSEsInjected,
			detected: rep.LSEsDetected, fgRequests: rep.FgRequests, collisions: rep.Collisions,
		},
	}, nil
}

// fleetWorkers bounds the fleet's worker goroutines: the benchmark's load
// comes from at most two workers or connections.
const fleetWorkers = 2

var fleetSweep = &simWorkload{
	name: "fleet-sweep",
	setup: func(_ string, seed int64, sc scale) ([]*job, error) {
		jobs := make([]*job, sc.fleetVariants)
		for v := range jobs {
			jobs[v] = fleetCampaign{
				cfg: fleet.Config{
					Shards: 8, Workers: fleetWorkers, Slice: sc.fleetSlice,
					Seed: seed*1000 + int64(v), Instrument: true,
				},
				drives:  sc.fleetDrives,
				horizon: sc.fleetHorizon,
			}.job()
		}
		return jobs, nil
	},
	probe: fleetProbe,
}
