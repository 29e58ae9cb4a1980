package experiments

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/idlesim"
	"repro/internal/iosched"
	"repro/internal/mlet"
	"repro/internal/replay"
	"repro/internal/scrub"
	"repro/internal/sim"
)

// Ablation experiments: each removes or perturbs one modelled mechanism to
// show that the paper's phenomena depend on it, validating the simulation
// rather than reproducing a specific figure.

// AblationRotationalMiss removes the command/completion propagation
// overheads (setting them to zero lets back-to-back sequential VERIFY
// catch the next sector in the same revolution). The paper's Section IV-A
// explanation predicts that without the rotational miss, sequential
// scrubbing speeds up several-fold and staggered loses its competitive
// position.
func AblationRotationalMiss(o Options) Table {
	t := Table{
		Title:   "Ablation: rotational-miss mechanism (64KB scrub throughput, MB/s)",
		Columns: []string{"overheads", "sequential", "staggered(256)"},
	}
	dur := o.runDur(5 * time.Second)
	for _, zero := range []bool{false, true} {
		m := disk.HitachiUltrastar15K450()
		label := "modelled"
		if zero {
			m.CommandOverhead = 0
			m.CompletionOverhead = 0
			label = "removed"
		}
		d := disk.MustNew(m)
		seqAlg, err := scrub.NewSequential(d.Sectors())
		if err != nil {
			panic(err)
		}
		stagAlg, err := scrub.NewStaggered(d.Sectors(), 128, 256)
		if err != nil {
			panic(err)
		}
		seq := scrubOnlyThroughput(m, seqAlg, 128, dur)
		stag := scrubOnlyThroughput(m, stagAlg, 128, dur)
		t.Rows = append(t.Rows, []string{label, f1(seq), f1(stag)})
	}
	return t
}

// AblationIdleGate sweeps CFQ's idle-class gate. The paper reports that
// tuning the 10 ms default "did not seem to affect CFQ's background
// request scheduling" in Linux 2.6.35; in the model the gate does what
// its name says, and the sweep shows the scrub-throughput/foreground-
// impact trade-off the parameter ought to control.
func AblationIdleGate(o Options) Table {
	t := Table{
		Title:   "Ablation: CFQ idle-gate sweep (sequential workload + Idle-class scrubber)",
		Columns: []string{"gate", "fg MB/s", "scrub MB/s"},
	}
	dur := o.runDur(30 * time.Second)
	for _, gate := range []time.Duration{time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 200 * time.Millisecond} {
		s := sim.New()
		d := disk.MustNew(disk.HitachiUltrastar15K450())
		cfq := iosched.NewCFQ()
		cfq.SetIdleGate(gate)
		q := blockdev.NewQueue(s, d, cfq)
		w := &replay.Synthetic{BypassCache: true, Seed: o.seed()}
		if err := w.Start(s, q); err != nil {
			panic(err)
		}
		alg, err := scrub.NewSequential(d.Sectors())
		if err != nil {
			panic(err)
		}
		sc, err := scrub.New(s, q, scrub.Config{Algorithm: alg, Class: blockdev.ClassIdle})
		if err != nil {
			panic(err)
		}
		sc.Start()
		if err := s.RunUntil(dur); err != nil {
			panic(err)
		}
		t.Rows = append(t.Rows, []string{
			gate.String(),
			f1(w.Stats().ThroughputMBps(dur)),
			f1(sc.Stats().ThroughputMBps(dur)),
		})
	}
	return t
}

// AblationAROrder sweeps the AR policy's maximum order on a heavy-tailed
// trace, quantifying the paper's diagnosis that AR "cannot capture enough
// request history to make successful decisions": more lags do not rescue
// the frontier.
func AblationAROrder(o Options) Table {
	dur := 6 * time.Hour
	if o.Quick {
		dur = time.Hour
	}
	in := policyInput("MSRusr2", o, dur)
	svc := idlesim.ScrubService(disk.HitachiUltrastar15K450())
	t := Table{
		Title:   "Ablation: AR maximum order (MSRusr2, c=512ms)",
		Columns: []string{"max order", "collision rate", "idle utilized"},
	}
	for _, order := range []int{1, 2, 4, 8, 16} {
		res := idlesim.Run(in, &idlesim.ARPolicy{
			Threshold: 512 * time.Millisecond,
			MaxOrder:  order,
		}, 128, svc)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", order),
			fmt.Sprintf("%.4f", res.CollisionRate()),
			f3(res.UtilizedFrac()),
		})
	}
	// Waiting reference row at a comparable operating point.
	ref := idlesim.Run(in, &idlesim.WaitingPolicy{Threshold: 128 * time.Millisecond}, 128, svc)
	t.Rows = append(t.Rows, []string{
		"waiting(128ms)",
		fmt.Sprintf("%.4f", ref.CollisionRate()),
		f3(ref.UtilizedFrac()),
	})
	return t
}

// AblationMLET quantifies why the library defaults to staggered
// scrubbing: mean latent error time of sequential scanning, plain
// staggered probing, and staggered with region-scrub-on-detection, under
// the bursty LSE model, all at the same effective scrub rate.
func AblationMLET(o Options) Table {
	t := Table{
		Title:   "Extension: MLET under bursty LSEs (300GB disk, 50MB/s effective scrub rate)",
		Columns: []string{"schedule", "MLET", "max latency", "errors"},
	}
	const (
		sectors = int64(585937500)
		rate    = 50e6
	)
	horizon := 1000 * time.Hour
	if o.Quick {
		horizon = 200 * time.Hour
	}
	model := mlet.BurstModel{Rate: 1, MeanSize: 8, SpreadSectors: 1 << 20, TotalSectors: sectors}
	rng := newRand(o.seed())
	bursts := model.Generate(rng, horizon)

	seq, err := mlet.NewSequentialSchedule(sectors, rate)
	if err != nil {
		panic(err)
	}
	stag, err := mlet.NewStaggeredSchedule(sectors, 2048, 128, rate)
	if err != nil {
		panic(err)
	}
	for _, res := range []mlet.Result{
		mlet.Evaluate(seq, bursts),
		mlet.Evaluate(stag, bursts),
		mlet.EvaluateWithRegionScrub(stag, bursts),
	} {
		t.Rows = append(t.Rows, []string{
			res.Schedule,
			res.MLET.Round(time.Second).String(),
			res.MaxLatency.Round(time.Second).String(),
			fmt.Sprintf("%d", res.Errors),
		})
	}
	return t
}

// AblationSwapping reproduces the paper's footnote finding that the
// swapping strategy's optimal switch point is infinity: sweeping the
// switch time t' shows throughput-per-slowdown never improving over the
// fixed (never-switch) configuration.
func AblationSwapping(o Options) Table {
	dur := 6 * time.Hour
	if o.Quick {
		dur = time.Hour
	}
	in := policyInput("MSRusr2", o, dur)
	m := disk.HitachiUltrastar15K450()
	svc := idlesim.ScrubService(m)
	capSectors := maxSizeFor(svc, 50*time.Millisecond)

	t := Table{
		Title:   "Ablation: swapping strategy switch point (Waiting 64ms, start 1MB)",
		Columns: []string{"switch t'", "mean slowdown", "throughput MB/s", "eff (MBps/ms)"},
	}
	const start = 2048 // 1MB
	threshold := 64 * time.Millisecond
	addRow := func(label string, tSwitch time.Duration) {
		var sizes idlesim.SizeFunc
		if tSwitch < 0 {
			sizes = idlesim.FixedSizes(start)
		} else {
			sizes = idlesim.SwappingSizes(start, capSectors, tSwitch)
		}
		res := idlesim.RunAdaptive(in, &idlesim.WaitingPolicy{Threshold: threshold}, sizes, svc)
		slowMS := res.MeanSlowdown().Seconds() * 1e3
		eff := 0.0
		if slowMS > 0 {
			eff = res.ThroughputMBps() / slowMS
		}
		t.Rows = append(t.Rows, []string{label, fmt.Sprintf("%.3fms", slowMS), f1(res.ThroughputMBps()), f1(eff)})
	}
	for _, sw := range []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond, time.Second} {
		addRow(sw.String(), sw)
	}
	addRow("infinity (fixed)", -1)
	return t
}
