package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/iosched"
	"repro/internal/raidsim"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ssdThresholdGrid sweeps the wait/prediction threshold for flash: GC
// pauses are on the millisecond scale, so the interesting range sits two
// orders of magnitude below the HDD grid.
func ssdThresholdGrid(quick bool) []time.Duration {
	lo, hi := 1, 128
	if quick {
		lo = 2
		hi = 64
	}
	var out []time.Duration
	for ms := lo; ms <= hi; ms *= 2 {
		out = append(out, time.Duration(ms)*time.Millisecond)
	}
	return out
}

// FigSSDPolicies is the flash counterpart of the paper's policy study:
// Waiting vs AR threshold sweep, with the CFQ-idle baseline, run as full
// queueing simulations over a replayed trace on the SSD device model.
// The device has no seek curve, but its FTL garbage collection steals
// idle windows — so the threshold trade-off the paper derives for disk
// arms reappears at millisecond scale.
func FigSSDPolicies(o Options) []Series { return FigSSDPoliciesOn(o, disk.DemoSSD()) }

// FigSSDPoliciesOn is FigSSDPolicies on an arbitrary flash model, for
// policyeval's -disk flag.
func FigSSDPoliciesOn(o Options, ssd disk.SSDModel) []Series {
	dur := 30 * time.Minute
	if o.Quick {
		dur = 10 * time.Minute
	}
	spec, ok := trace.ByName("MSRusr2")
	if !ok {
		panic("unknown trace MSRusr2")
	}
	tr := spec.Generate(o.seed(), dur)

	run := func(pol core.PolicyKind, threshold time.Duration) float64 {
		opts := []core.Option{
			core.WithDevice(ssd),
			core.WithAlgorithm(core.Sequential),
			core.WithPolicy(pol),
			core.WithRequestBytes(1 << 20),
		}
		switch pol {
		case core.PolicyWaiting:
			opts = append(opts, core.WithWaitThreshold(threshold))
		case core.PolicyAR:
			opts = append(opts, core.WithARThreshold(threshold))
		}
		sys, err := core.New(nil, opts...)
		if err != nil {
			panic(err)
		}
		sys.Start()
		if _, err := (&replay.Replayer{}).RunSource(sys.Sim, sys.Queue, tr.Source(), tr.DiskSectors); err != nil {
			panic(err)
		}
		return sys.Report().ScrubMBps
	}

	grid := ssdThresholdGrid(o.Quick)
	mk := func(label string) Series {
		return Series{Label: label, X: make([]float64, len(grid)), Y: make([]float64, len(grid))}
	}
	out := []Series{mk("Waiting"), mk("Auto-Regression"), mk("CFQ idle")}
	// One task per (policy, threshold) cell; the CFQ-idle baseline is
	// threshold-independent and computed once, then drawn flat.
	o.fan(2*len(grid)+1, func(k int) {
		switch {
		case k < len(grid):
			out[0].X[k] = float64(grid[k]) / float64(time.Millisecond)
			out[0].Y[k] = run(core.PolicyWaiting, grid[k])
		case k < 2*len(grid):
			j := k - len(grid)
			out[1].X[j] = float64(grid[j]) / float64(time.Millisecond)
			out[1].Y[j] = run(core.PolicyAR, grid[j])
		default:
			out[2].Y[0] = run(core.PolicyCFQIdle, 0)
		}
	})
	base := out[2].Y[0]
	out[2].X = make([]float64, len(grid))
	out[2].Y = make([]float64, len(grid))
	for j := range grid {
		out[2].X[j] = float64(grid[j]) / float64(time.Millisecond)
		out[2].Y[j] = base
	}
	return out
}

// interferenceModel is the shrunk array-member drive every raidsim
// experiment cell uses: small enough that full rebuild and scrub walks
// finish in simulated minutes.
func interferenceModel() disk.Model {
	m := disk.FujitsuMAX3073RC()
	m.CapacityBytes = 64 << 20
	m.Cylinders = 100
	return m
}

// interferenceConfig builds the array config for one layout.
func interferenceConfig(layout raidsim.Layout) raidsim.Config {
	cfg := raidsim.Config{Disks: 6, Model: interferenceModel(), Layout: layout}
	if layout == raidsim.LayoutDeclustered {
		cfg.StripeWidth = 4
	}
	return cfg
}

// TableRebuildInterference measures scrub-vs-rebuild contention by
// layout: for clustered and declustered arrays, a full rebuild runs
// alone and then concurrently with a group scrub. Declustered parity
// reads fewer survivors per row and skips rows without the failed
// member, so its rebuild both finishes earlier and suffers less from a
// concurrent scrub.
func TableRebuildInterference(o Options) Table {
	t := Table{
		Title: "Scrub-vs-rebuild interference by layout",
		Columns: []string{"layout", "scrub", "rebuild done", "rebuilt rows",
			"scrubbed rows", "scrub LSEs", "lost stripes"},
	}
	layouts := []raidsim.Layout{raidsim.LayoutClustered, raidsim.LayoutDeclustered}
	type cell struct {
		rebuildDone time.Duration
		st          raidsim.Stats
	}
	cells := make([]cell, 2*len(layouts))
	o.fan(len(cells), func(k int) {
		layout := layouts[k/2]
		withScrub := k%2 == 1
		g, err := raidsim.New(interferenceConfig(layout))
		if err != nil {
			panic(err)
		}
		// Deterministic planted errors: one latent error every 13th row,
		// rotating over the survivors, so both walks encounter them.
		cfg := interferenceConfig(layout)
		for r := int64(0); r < 60; r += 13 {
			member := 1 + int(r)%(cfg.Disks-1)
			g.Member(member).Disk().InjectLSE(r * 128)
		}
		if err := g.FailDisk(0); err != nil {
			panic(err)
		}
		var done time.Duration
		if err := g.StartRebuild(0, func(now time.Duration) { done = now }); err != nil {
			panic(err)
		}
		if withScrub {
			if err := g.StartScrub(nil); err != nil {
				panic(err)
			}
		}
		if err := g.Sim().RunUntil(time.Hour); err != nil {
			panic(err)
		}
		cells[k] = cell{rebuildDone: done, st: g.Stats()}
	})
	for k, c := range cells {
		scrub := "off"
		if k%2 == 1 {
			scrub = "on"
		}
		t.Rows = append(t.Rows, []string{
			layouts[k/2].String(),
			scrub,
			ms(c.rebuildDone),
			fmt.Sprintf("%d", c.st.RebuildRows),
			fmt.Sprintf("%d", c.st.ScrubbedRows),
			fmt.Sprintf("%d", c.st.ScrubLSEsFound),
			fmt.Sprintf("%d", c.st.UnrecoverableStripes),
		})
	}
	return t
}

// schedulerNames is the head-to-head field: the reference elevators and
// both bad-sector-aware variants.
var schedulerNames = []string{"noop", "deadline", "cfq", "bsa", "bsa-repair"}

// TableSchedulers replays one trace through every scheduler over a drive
// with a planted bad-sector population and a bounded retry policy: the
// ODSA-style schedulers learn the bad regions from medium errors and
// separate suspect traffic, which shows up as a lower mean response for
// the clean stream at the same request count.
func TableSchedulers(o Options) Table {
	dur := 30 * time.Minute
	if o.Quick {
		dur = 10 * time.Minute
	}
	spec, ok := trace.ByName("MSRsrc11")
	if !ok {
		panic("unknown trace MSRsrc11")
	}
	tr := spec.Generate(o.seed(), dur)

	t := Table{
		Title:   "I/O schedulers on a drive with latent bad sectors",
		Columns: []string{"scheduler", "requests", "mean resp", "mean wait", "learned ranges"},
	}
	type row struct {
		res     *replay.Result
		learned int
	}
	rows := make([]row, len(schedulerNames))
	o.fan(len(schedulerNames), func(k int) {
		s := sim.New()
		d := disk.MustNew(disk.DemoSmall())
		// The bad-sector population is shared across schedulers (same
		// derived seed) so the comparison is apples to apples.
		rng := o.taskRand("table-schedulers", "lses")
		for i := 0; i < 300; i++ {
			d.InjectLSE(rng.Int63n(d.Sectors()))
		}
		sched, err := iosched.New(schedulerNames[k])
		if err != nil {
			panic(err)
		}
		q := blockdev.NewQueue(s, d, sched)
		q.SetRetryPolicy(blockdev.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond})
		res, err := (&replay.Replayer{}).RunSource(s, q, tr.Source(), tr.DiskSectors)
		if err != nil {
			panic(err)
		}
		learned := -1
		if b, ok := sched.(*iosched.BSA); ok {
			learned = b.BadRanges()
		}
		rows[k] = row{res: res, learned: learned}
	})
	for k, r := range rows {
		learned := "-"
		if r.learned >= 0 {
			learned = fmt.Sprintf("%d", r.learned)
		}
		t.Rows = append(t.Rows, []string{
			schedulerNames[k],
			fmt.Sprintf("%d", r.res.Requests),
			ms(time.Duration(r.res.MeanResponse() * float64(time.Second))),
			ms(time.Duration(r.res.MeanWait() * float64(time.Second))),
			learned,
		})
	}
	return t
}

// matrixDevices are the device models of the scenario matrix.
func matrixDevices() []disk.DeviceModel {
	return []disk.DeviceModel{disk.DemoSmall(), disk.DemoSSD()}
}

// matrixScheds is the scheduler axis of the scenario matrix (the repair
// variant behaves like bsa on an idle system, so the matrix keeps one).
var matrixScheds = []string{"cfq", "deadline", "noop", "bsa"}

// ScenarioMatrix runs an idle-device scrub campaign for every (device
// model × scheduler) combination with two planted latent errors: every
// cell must scrub at a positive rate and find both errors, and the
// threshold column pins each model's default wait threshold — the
// per-model default the device split introduced.
func ScenarioMatrix(o Options) Table {
	t := Table{
		Title:   "Scenario matrix: device model x scheduler",
		Columns: []string{"device", "scheduler", "threshold", "MB/s", "LSEs found"},
	}
	devices := matrixDevices()
	horizon := 20 * time.Second
	if o.Quick {
		horizon = 8 * time.Second
	}
	type cell struct {
		threshold time.Duration
		rep       core.Report
	}
	cells := make([]cell, len(devices)*len(matrixScheds))
	o.fan(len(cells), func(k int) {
		dm := devices[k/len(matrixScheds)]
		sched := matrixScheds[k%len(matrixScheds)]
		sys, err := core.New(nil,
			core.WithDevice(dm),
			core.WithIOSched(sched),
			core.WithAlgorithm(core.Sequential),
			core.WithRequestBytes(1<<20),
		)
		if err != nil {
			panic(err)
		}
		sys.Device.InjectLSE(12345)
		sys.Device.InjectLSE(sys.Device.Sectors() / 2)
		sys.Start()
		if err := sys.RunFor(context.Background(), horizon); err != nil {
			panic(err)
		}
		cells[k] = cell{threshold: sys.Config().WaitThreshold, rep: sys.Report()}
	})
	for k, c := range cells {
		t.Rows = append(t.Rows, []string{
			devices[k/len(matrixScheds)].DeviceName(),
			matrixScheds[k%len(matrixScheds)],
			ms(c.threshold),
			f1(c.rep.ScrubMBps),
			fmt.Sprintf("%d", c.rep.LSEsFound),
		})
	}
	return t
}
