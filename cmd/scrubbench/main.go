// Command scrubbench runs the simulator's fixed benchmark suite and emits
// a machine-readable BENCH_<date>.json (see internal/benchcmp for the
// schema): wall-clock ns/op, allocs/op, simulator events/sec, suite peak
// RSS. It is the producing half of the benchmark-regression gate; CI runs
// it with -quick against a checked-in baseline and fails on regressions
// beyond the noise threshold.
//
// The suite covers the pooled hot paths end to end:
//
//	replay/<trace>       open-loop trace replay through CFQ (records/sec)
//	policy/waiting       full System, Waiting policy vs closed-loop workload
//	policy/ar            full System, AR policy vs the same workload
//	tuner/sweep          serial AutoTune over a catalog trace source
//	shardfleet/shards-N  sharded engine campaign at 1 and 8 shards
//
// The shardfleet stage double-checks determinism: the fleet report must
// be byte-identical across shard counts, or the run fails regardless of
// timing.
//
// With -max-drives the fixed suite is replaced by a datacenter-scale
// scrub-policy sweep through the sharded fleet engine: -max-drives
// members split across the policy families, executed over -shards
// stripes, with aggregate events/sec per policy and the sweep's peak
// RSS recorded in the emitted BENCH_*.json. Usage:
//
//	scrubbench [-quick] [-o out.json] [-baseline base.json] [-threshold 0.15]
//	scrubbench -max-drives 1000000 [-shards 64] [-o out.json]
//	scrubbench loadgen [-quick] [-devices N] [-o out.json] [-baseline base.json]
//	scrubbench trace [-quick] [-o out.json] [-baseline base.json]
//	scrubbench scenario [-quick] [-o out.json] [-baseline base.json]
//
// The loadgen subcommand load-tests the scrubd service core instead of
// the simulator: it stands up the engine plus its HTTP surface
// in-process, feeds tens of thousands of devices, and records feed
// throughput and decision-query latency percentiles (see loadgen.go).
// The trace subcommand benchmarks the streaming ingestion pipeline —
// real-format parsers, the columnar cache and constant-memory replay
// (see tracebench.go). The
// scenario subcommand times the scenario-diversity hot paths — the SSD
// service loop and scrub stack, declustered-parity rebuilds with and
// without a concurrent scrub, and the bad-sector-aware scheduler — with
// per-iteration determinism gates on the array stats (see
// scenariobench.go).
package main

import (
	"bufio"
	"container/heap"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/benchcmp"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/iosched"
	"repro/internal/optimize"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "loadgen":
			loadgenMain(os.Args[2:])
			return
		case "trace":
			traceMain(os.Args[2:])
			return
		case "scenario":
			scenarioMain(os.Args[2:])
			return
		}
	}
	quick := flag.Bool("quick", false, "CI-sized suite: shorter sims, fewer iterations")
	out := flag.String("o", "", "output path (default BENCH_<date>.json)")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json to compare against")
	threshold := flag.Float64("threshold", 0.15, "tolerated relative regression vs the baseline")
	maxDrives := flag.Int("max-drives", 0, "run a fleet sweep over this many simulated drives instead of the fixed suite")
	shards := flag.Int("shards", 64, "shard count for the -max-drives sweep")
	flag.Parse()

	run := func() (*benchcmp.Run, error) { return runSuite(*quick, os.Stderr) }
	if *maxDrives > 0 {
		// Sweep results are scale probes, not the regression suite; a
		// baseline of suite benchmarks has nothing to compare them to.
		run = func() (*benchcmp.Run, error) { return runSweep(*maxDrives, *shards, os.Stderr) }
		*baseline = ""
	}
	exitOn("scrubbench", gate(run, *out, "BENCH_", *baseline, *threshold))
}

// gate runs a suite, writes the run to out (default
// <prefix><date>.json) and, given a baseline, compares the two at
// threshold. An apparent regression triggers up to two confirming
// re-runs, keeping the better sample per benchmark each time: a real
// slowdown regresses every time, while a noise episode (a co-tenant
// saturating the shared host) rarely outlasts three runs. It returns
// an error for a failed run, a refused baseline or a regression.
func gate(run func() (*benchcmp.Run, error), out, prefix, baseline string, threshold float64) error {
	var base *benchcmp.Run
	if baseline != "" {
		var err error
		if base, err = benchcmp.Load(baseline); err != nil {
			return err
		}
	}
	cur, err := run()
	if err != nil {
		return err
	}
	path := out
	if path == "" {
		path = prefix + cur.Date + ".json"
	}
	if err := cur.Write(path); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	if base == nil {
		return nil
	}
	deltas, err := benchcmp.Compare(base, cur, threshold)
	if err != nil {
		return err
	}
	for confirm := 0; confirm < 2 && len(benchcmp.Regressions(deltas)) > 0; confirm++ {
		fmt.Fprintln(os.Stderr, "possible regression, re-running to confirm")
		rerun, err := run()
		if err != nil {
			return err
		}
		cur = bestOf(cur, rerun)
		if err := cur.Write(path); err != nil {
			return err
		}
		if deltas, err = benchcmp.Compare(base, cur, threshold); err != nil {
			return err
		}
	}
	for _, d := range deltas {
		fmt.Println(d)
	}
	if regs := benchcmp.Regressions(deltas); len(regs) > 0 {
		return fmt.Errorf("%d regression(s) beyond %.0f%%", len(regs), threshold*100)
	}
	fmt.Fprintln(os.Stderr, "no regressions vs", baseline)
	return nil
}

// exitOn reports err under the command's name and exits 1; a nil err
// returns.
func exitOn(cmd string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// bestOf merges two runs of the same suite, keeping for each benchmark
// the sample with the lower ns/op (wholesale, so its calibration and
// throughput figures stay consistent with the timing they came from).
func bestOf(a, b *benchcmp.Run) *benchcmp.Run {
	merged := *a
	if b.PeakRSSBytes > merged.PeakRSSBytes {
		merged.PeakRSSBytes = b.PeakRSSBytes
	}
	merged.Results = append([]benchcmp.Result(nil), a.Results...)
	for i, r := range merged.Results {
		if other := b.Find(r.Name); other != nil && other.NsPerOp < r.NsPerOp {
			merged.Results[i] = *other
		}
	}
	return &merged
}

// suite collects one run's results, printing a progress line for each.
type suite struct {
	run      *benchcmp.Run
	progress io.Writer // may be nil
}

func newSuite(quick bool, progress io.Writer) *suite {
	return &suite{run: benchcmp.NewRun(quick), progress: progress}
}

// add records r, or returns err under r's name.
func (s *suite) add(r benchcmp.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", r.Name, err)
	}
	s.run.Results = append(s.run.Results, r)
	if s.progress != nil {
		line := fmt.Sprintf("%-28s %12.0f ns/op %8.1f allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		if r.EventsPerSec > 0 {
			line += fmt.Sprintf(" %12.0f events/sec", r.EventsPerSec)
		}
		keys := make([]string, 0, len(r.Extra))
		for k := range r.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			line += fmt.Sprintf(" %s=%.4g", k, r.Extra[k])
		}
		fmt.Fprintln(s.progress, line)
	}
	return nil
}

// done stamps the process's peak RSS on the run and returns it.
func (s *suite) done() *benchcmp.Run {
	s.run.PeakRSSBytes = peakRSS()
	return s.run
}

// runSuite executes the fixed benchmark suite and assembles the run
// record. progress receives one line per finished benchmark (may be nil).
func runSuite(quick bool, progress io.Writer) (*benchcmp.Run, error) {
	s := newSuite(quick, progress)
	for _, name := range []string{"TPCdisk66", "HPc3t3d0"} {
		if err := s.add(benchReplay(name, quick)); err != nil {
			return nil, err
		}
	}
	for _, pol := range []core.PolicyKind{core.PolicyWaiting, core.PolicyAR} {
		if err := s.add(benchPolicy(pol, quick)); err != nil {
			return nil, err
		}
	}
	if err := s.add(benchTuner(quick)); err != nil {
		return nil, err
	}
	shardRes, err := benchShardFleet(quick)
	if err != nil {
		return nil, err
	}
	for _, r := range shardRes {
		if err := s.add(r, nil); err != nil {
			return nil, err
		}
	}
	return s.done(), nil
}

// sweepPolicies are the scrub-policy families the sharded sweeps cover:
// the paper's baseline fixed-delay scrubber and the idle-waiting
// scheduler, each with a low background LSE arrival rate.
func sweepPolicies(m *disk.Model) []fleet.MemberClass {
	return []fleet.MemberClass{
		{
			Name: "fixed",
			Config: core.Config{
				Model:      m,
				Algorithm:  core.Sequential,
				Policy:     core.PolicyFixedDelay,
				Delay:      200 * time.Millisecond,
				ReqBytes:   256 << 10,
				AutoRepair: true,
				Faults:     fault.Uniform{RatePerHour: 2},
			},
		},
		{
			Name: "waiting",
			Config: core.Config{
				Model:         m,
				Algorithm:     core.Staggered,
				Regions:       64,
				Policy:        core.PolicyWaiting,
				WaitThreshold: 50 * time.Millisecond,
				ReqBytes:      256 << 10,
				AutoRepair:    true,
				Faults:        fault.Uniform{RatePerHour: 2},
			},
		},
	}
}

// benchShardFleet runs one small campaign through the sharded engine at
// 1 and 8 shards. Timing is secondary to the built-in determinism gate:
// the fleet reports must be byte-identical across shard counts or the
// suite fails.
func benchShardFleet(quick bool) ([]benchcmp.Result, error) {
	drives, horizon, iters := 192, 2*time.Minute, 6
	if quick {
		drives, horizon, iters = 96, time.Minute, 8
	}
	m := disk.DemoSmall()
	classes := sweepPolicies(&m)
	for i := range classes {
		classes[i].Count = drives / len(classes)
	}

	var results []benchcmp.Result
	var snapshot string
	for _, shards := range []int{1, 8} {
		name := "shardfleet/shards-" + strconv.Itoa(shards)
		var snap string
		res, err := measure(name, iters, func() (uint64, error) {
			e, err := fleet.New(fleet.Config{
				Shards: shards,
				Slice:  horizon / 4,
				Seed:   29,
			}, classes)
			if err != nil {
				return 0, err
			}
			rep, err := e.Run(context.Background(), horizon)
			if err != nil {
				return 0, err
			}
			snap = fmt.Sprintf("%+v", *rep)
			return uint64(rep.Events), nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		res.Extra = map[string]float64{
			"drives":          float64(drives),
			"members_per_sec": float64(drives) / (res.NsPerOp / 1e9),
		}
		results = append(results, res)
		if snapshot == "" {
			snapshot = snap
		} else if snap != snapshot {
			return nil, fmt.Errorf("%s: fleet report diverged from shards-1 run:\n%s\nvs\n%s", name, snap, snapshot)
		}
	}
	return results, nil
}

// runSweep is the -max-drives mode: a datacenter-scale scrub-policy
// sweep through the sharded fleet engine. Each policy family gets an
// equal stripe of the drive budget and runs as one single-slice campaign
// (members hydrate, run to the horizon and finalize without ever holding
// more live state than the worker count), so the recorded peak RSS is
// the engine's true at-scale footprint.
func runSweep(maxDrives, shards int, progress io.Writer) (*benchcmp.Run, error) {
	s := newSuite(false, progress)
	const horizon = 2 * time.Second
	m := disk.DemoSmall()
	classes := sweepPolicies(&m)
	per := maxDrives / len(classes)
	if per == 0 {
		return nil, fmt.Errorf("sweep: %d drives cannot cover %d policies", maxDrives, len(classes))
	}
	for i := range classes {
		classes[i].Count = per
	}
	classes[0].Count += maxDrives - per*len(classes)

	for _, cls := range classes {
		name := "sweep/" + cls.Name
		e, err := fleet.New(fleet.Config{Shards: shards, Seed: 17},
			[]fleet.MemberClass{cls})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		start := time.Now()
		rep, err := e.Run(context.Background(), horizon)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if err := s.add(benchcmp.Result{
			Name:         name,
			NsPerOp:      float64(elapsed.Nanoseconds()),
			EventsPerSec: float64(rep.Events) / elapsed.Seconds(),
			Extra: map[string]float64{
				"drives":          float64(cls.Count),
				"shards":          float64(shards),
				"members_per_sec": float64(cls.Count) / elapsed.Seconds(),
				"lses_found":      float64(rep.LSEsFound),
			},
		}, nil); err != nil {
			return nil, err
		}
	}
	run := s.done()
	if progress != nil {
		fmt.Fprintf(progress, "sweep: %d drives total, peak RSS %.1f MB\n",
			maxDrives, float64(run.PeakRSSBytes)/1e6)
	}
	return run, nil
}

// measure runs fn iters times after one discarded warmup and fills in the
// metrics. Timing takes the best iteration — the minimum is the standard
// noise-robust statistic for benchmarks, since interference only ever adds
// time. Allocations come from the second of two more, untimed calls
// under GOMAXPROCS 1, as testing.AllocsPerRun counts them: Mallocs is
// process-wide, and with more Ps the runtime's own records for a
// concurrent stage (goroutines, channel waits, new Ms) land in it and
// vary from run to run. events reports the simulator events fired by one
// fn call (zero when not applicable).
func measure(name string, iters int, fn func() (events uint64, err error)) (benchcmp.Result, error) {
	res := benchcmp.Result{Name: name}
	if _, err := fn(); err != nil { // warmup: size pools and buffers
		return res, err
	}
	cal := calibrate()
	bestNs, bestEvents := int64(0), uint64(0)
	for i := 0; i < iters; i++ {
		start := time.Now()
		ev, err := fn()
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return res, err
		}
		if i == 0 || elapsed < bestNs {
			bestNs, bestEvents = elapsed, ev
		}
		// One more kernel run after each iteration spreads the
		// calibration over the same window as the timed iterations, so
		// the two minima see the same fastest stretch of the host.
		cal = min(cal, calRun())
	}

	// The first call on one P is a warmup, as in AllocsPerRun: the
	// runtime may still allocate its own records in it while the P's
	// caches refill after the switch.
	procs := runtime.GOMAXPROCS(1)
	mallocs, err := countMallocs(fn)
	if err == nil {
		mallocs, err = countMallocs(fn)
	}
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return res, err
	}

	res.NsPerOp = float64(bestNs)
	res.AllocsPerOp = float64(mallocs)
	res.CalNs = float64(cal)
	if bestEvents > 0 && bestNs > 0 {
		res.EventsPerSec = float64(bestEvents) / (float64(bestNs) / 1e9)
	}
	return res, nil
}

// countMallocs returns the heap allocations one call of fn makes.
func countMallocs(fn func() (uint64, error)) (uint64, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m0 := ms.Mallocs
	_, err := fn()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - m0, err
}

// calibrate returns the best of 5 calibration runs. Measured next to
// every benchmark, it gives benchcmp a per-result host-speed reference,
// so CPU frequency drift and memory-bandwidth contention cancel out of
// the time comparisons.
func calibrate() time.Duration {
	best := calRun()
	for r := 1; r < 5; r++ {
		best = min(best, calRun())
	}
	return best
}

// calRun times one kernel run. The collection before it gives the
// kernel's own allocations the same heap to start from whatever ran
// before; without it the kernel's garbage collection work, and so its
// time, varies by ±20%.
func calRun() time.Duration {
	runtime.GC()
	return calKernel()
}

// The calibration kernel below is a copy of e2ebench's (calKernel in
// e2ebench/calib.go, a separate module that this one cannot import), and
// the two must stay identical. It uses only the standard library, so no
// change to the repository's code moves it, and it does what the
// simulator does (heap-ordered events, small allocations, map updates,
// scattered reads over a few MB), so it slows down with the host the way
// the benchmarks do.

type calEvent struct {
	at float64
	v  int64
}

type calHeap []*calEvent

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calTable is the kernel's 4 MB scattered-read working set.
var calTable = make([]int64, 1<<19)

var calSink int64

// calKernel runs the fixed calibration work once and returns its time.
func calKernel() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := &calHeap{}
	seen := map[int64]*calEvent{}
	for i := 0; i < 4096; i++ {
		heap.Push(h, &calEvent{at: float64(rnd()%100000) / 1000})
	}
	for i := 0; i < 60000; i++ {
		ev := heap.Pop(h).(*calEvent)
		r := rnd()
		k := int64(r % 16384)
		if old, ok := seen[k]; ok {
			calSink += old.v
		}
		seen[k] = ev
		calSink += calTable[r&(1<<19-1)]
		heap.Push(h, &calEvent{at: ev.at + float64(r%1000)/1000 + 0.001, v: int64(r)})
	}
	return time.Since(t0)
}

// benchReplay replays one catalog trace through CFQ on the paper's SAS
// drive, the steady-state regime of policy sweeps and tuner runs.
func benchReplay(name string, quick bool) (benchcmp.Result, error) {
	resName := "replay/" + name
	spec, ok := trace.ByName(name)
	if !ok {
		return benchcmp.Result{Name: resName}, fmt.Errorf("unknown catalog trace")
	}
	// Windows are sized per trace so every iteration replays enough
	// records for stable timing: TPCdisk66 is dense, HPc3t3d0 sparse.
	durs := map[string]time.Duration{"TPCdisk66": 60 * time.Second, "HPc3t3d0": 45 * time.Minute}
	dur, iters := durs[name], 12
	if dur == 0 {
		dur = 5 * time.Minute
	}
	if quick {
		dur, iters = dur/3, 10
	}
	tr := spec.Generate(1, dur)
	if len(tr.Records) == 0 {
		return benchcmp.Result{Name: resName}, fmt.Errorf("empty trace")
	}
	s := sim.New()
	d, err := disk.New(disk.HitachiUltrastar15K450())
	if err != nil {
		return benchcmp.Result{Name: resName}, err
	}
	q := blockdev.NewQueue(s, d, iosched.NewCFQ())
	rp := &replay.Replayer{}
	res, err := measure(resName, iters, func() (uint64, error) {
		f0 := s.Fired()
		r, err := rp.RunSource(s, q, tr.Source(), tr.DiskSectors)
		if err != nil {
			return 0, err
		}
		if r.Requests != int64(len(tr.Records)) {
			return 0, fmt.Errorf("completed %d of %d records", r.Requests, len(tr.Records))
		}
		return s.Fired() - f0, nil
	})
	if err != nil {
		return res, err
	}
	res.Extra = map[string]float64{
		"records_per_sec": float64(len(tr.Records)) / (res.NsPerOp / 1e9),
	}
	return res, nil
}

// benchPolicy runs a full System (scrubber under the given policy) against
// the closed-loop synthetic foreground workload.
func benchPolicy(pol core.PolicyKind, quick bool) (benchcmp.Result, error) {
	name := "policy/" + map[core.PolicyKind]string{
		core.PolicyWaiting: "waiting",
		core.PolicyAR:      "ar",
	}[pol]
	simDur, iters := 5*time.Minute, 10
	if quick {
		simDur, iters = 90*time.Second, 12
	}
	// A fresh stack per iteration: cold pools included.
	return measure(name, iters, func() (uint64, error) { return runPolicy(pol, simDur) })
}

// runPolicy is benchPolicy's timed body: it builds a System under the
// policy, drives it with the closed-loop synthetic workload for simDur
// and returns the number of events fired.
func runPolicy(pol core.PolicyKind, simDur time.Duration) (uint64, error) {
	sys, err := core.New(nil,
		core.WithPolicy(pol),
		core.WithWaitThreshold(50*time.Millisecond),
		core.WithARThreshold(100*time.Millisecond),
	)
	if err != nil {
		return 0, err
	}
	w := &replay.Synthetic{Seed: 11}
	if err := w.Start(sys.Sim, sys.Queue); err != nil {
		return 0, err
	}
	sys.Start()
	if err := sys.RunFor(context.Background(), simDur); err != nil {
		return 0, err
	}
	if w.Stats().Requests == 0 {
		return 0, fmt.Errorf("workload issued no requests")
	}
	return sys.Sim.Fired(), nil
}

// benchTuner runs a serial AutoTune over a catalog profile, building the
// profile's source inside each timed iteration — the paper's "repeat the
// simulations to adapt the parameter values" loop, dominated by
// idle-interval simulation.
func benchTuner(quick bool) (benchcmp.Result, error) {
	const resName = "tuner/sweep"
	spec, ok := trace.ByName("MSRsrc11")
	if !ok {
		return benchcmp.Result{Name: resName}, fmt.Errorf("unknown catalog trace")
	}
	profDur, iters := 4*time.Hour, 5
	if quick {
		profDur, iters = 90*time.Minute, 8
	}
	profile := spec.Generate(3, profDur)
	goal := optimize.Goal{MeanSlowdown: 2 * time.Millisecond, MaxSlowdown: 50 * time.Millisecond}
	m := disk.HitachiUltrastar15K450()
	var last optimize.Choice
	res, err := measure(resName, iters, func() (uint64, error) {
		c, err := core.AutoTune(context.Background(), profile.Source(), m, goal, 1)
		if err != nil {
			return 0, err
		}
		last = c
		return 0, nil
	})
	if err != nil {
		return res, err
	}
	if last.ReqSectors <= 0 {
		return res, fmt.Errorf("tuner chose a degenerate size: %+v", last)
	}
	return res, nil
}

// peakRSS returns the process's high-water resident set in bytes, from
// /proc/self/status VmHWM where available, else the Go heap's Sys bytes.
func peakRSS() int64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseInt(fields[1], 10, 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.Sys)
}
