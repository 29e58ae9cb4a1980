// scrubbench scenario: the scenario-diversity benchmark suite. It times
// the hot paths the SSD/declustered/scheduler scenario families added:
//
//	scenario/ssd-service         raw flash Service loop (requests/sec)
//	scenario/ssd-scrub           full System scrubbing the SSD under load
//	scenario/declustered-rebuild declustered-parity rebuild to completion
//	scenario/declustered-scrub   rebuild with a concurrent group scrub
//	scenario/sched-bsa           trace replay through the BSA scheduler
//	                             on a drive with latent bad sectors
//
// The rebuild stages double as determinism gates: every iteration's
// group stats must be identical, or the run fails regardless of timing.
//
// Usage:
//
//	scrubbench scenario [-quick] [-o out.json] [-baseline base.json] [-threshold 0.25]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/benchcmp"
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/iosched"
	"repro/internal/raidsim"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

func scenarioMain(argv []string) {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	quick := fs.Bool("quick", false, "CI-sized suite: shorter sims, fewer iterations")
	out := fs.String("o", "", "output path (default BENCH_SCENARIO_<date>.json)")
	baseline := fs.String("baseline", "", "baseline BENCH_SCENARIO_*.json to compare against")
	threshold := fs.Float64("threshold", 0.25, "tolerated relative regression vs the baseline")
	fs.Parse(argv)

	run, err := runScenarioBench(*quick, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrubbench scenario:", err)
		os.Exit(1)
	}

	path := *out
	if path == "" {
		path = "BENCH_SCENARIO_" + run.Date + ".json"
	}
	if err := run.Write(path); err != nil {
		fmt.Fprintln(os.Stderr, "scrubbench scenario:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", path)

	if *baseline != "" {
		base, err := benchcmp.Load(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scrubbench scenario:", err)
			os.Exit(1)
		}
		deltas := benchcmp.Compare(base, run, *threshold)
		for confirm := 0; confirm < 2 && len(benchcmp.Regressions(deltas)) > 0; confirm++ {
			fmt.Fprintln(os.Stderr, "scrubbench scenario: possible regression, re-running to confirm")
			rerun, err := runScenarioBench(*quick, os.Stderr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scrubbench scenario:", err)
				os.Exit(1)
			}
			run = bestOf(run, rerun)
			if err := run.Write(path); err != nil {
				fmt.Fprintln(os.Stderr, "scrubbench scenario:", err)
				os.Exit(1)
			}
			deltas = benchcmp.Compare(base, run, *threshold)
		}
		for _, d := range deltas {
			fmt.Println(d)
		}
		if regs := benchcmp.Regressions(deltas); len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "scrubbench scenario: %d regression(s) beyond %.0f%%\n", len(regs), *threshold*100)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "no regressions vs", *baseline)
	}
}

// scenarioArrayConfig is the shrunk declustered array the rebuild stages
// run: small enough that a full rebuild finishes in simulated minutes.
func scenarioArrayConfig() raidsim.Config {
	m := disk.FujitsuMAX3073RC()
	m.CapacityBytes = 64 << 20
	m.Cylinders = 100
	return raidsim.Config{Disks: 6, Model: m, Layout: raidsim.LayoutDeclustered, StripeWidth: 4}
}

// runScenarioBench executes the scenario suite and assembles the run
// record. progress receives one line per finished benchmark (may be nil).
func runScenarioBench(quick bool, progress *os.File) (*benchcmp.Run, error) {
	run := &benchcmp.Run{
		Schema:    benchcmp.Schema,
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Quick:     quick,
	}
	add := func(r benchcmp.Result, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		run.Results = append(run.Results, r)
		if progress != nil {
			fmt.Fprintf(progress, "%-28s %12.0f ns/op %8.1f allocs/op %12.0f events/sec\n",
				r.Name, r.NsPerOp, r.AllocsPerOp, r.EventsPerSec)
		}
		return nil
	}

	ssdOps, simDur, iters := int64(2_000_000), 2*time.Minute, 6
	if quick {
		ssdOps, simDur, iters = 500_000, time.Minute, 8
	}

	// Raw flash service loop: the pooled per-request fast path the SSD
	// zero-alloc pin protects, timed at benchmark scale.
	ssd := disk.MustNewSSD(disk.DemoSSD())
	sectors := ssd.Sectors()
	res, err := measure("scenario/ssd-service", iters, func() (uint64, error) {
		var now time.Duration
		lba := int64(0)
		for i := int64(0); i < ssdOps; i++ {
			lba = (lba + 7*64) % (sectors - 64)
			r, err := ssd.Service(disk.Request{Op: disk.OpRead, LBA: lba, Sectors: 64}, now)
			if err != nil {
				return 0, err
			}
			now = r.Done
		}
		return uint64(ssdOps), nil
	})
	if err == nil {
		res.Extra = map[string]float64{
			"requests_per_sec": float64(ssdOps) / (res.NsPerOp / 1e9),
		}
	}
	if err := add(res, err); err != nil {
		return nil, err
	}

	// Full System on the flash model: scrubber, Waiting policy, queue and
	// the closed-loop synthetic foreground workload.
	res, err = measure("scenario/ssd-scrub", iters, func() (uint64, error) {
		sys, err := core.New(nil,
			core.WithDevice(disk.DemoSSD()),
			core.WithPolicy(core.PolicyWaiting),
			core.WithRequestBytes(1<<20),
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
		if sys.Report().ScrubMBps <= 0 {
			return 0, fmt.Errorf("SSD system never scrubbed")
		}
		return sys.Sim.Fired(), nil
	})
	if err := add(res, err); err != nil {
		return nil, err
	}

	// Declustered rebuild, alone and with a concurrent group scrub. Each
	// iteration rebuilds the whole array from scratch; the stats snapshot
	// must be identical every time or the stage fails.
	rebuild := func(name string, withScrub bool) (benchcmp.Result, error) {
		var snapshot string
		res, err := measure(name, iters, func() (uint64, error) {
			g, err := raidsim.New(scenarioArrayConfig())
			if err != nil {
				return 0, err
			}
			if err := g.FailDisk(0); err != nil {
				return 0, err
			}
			var done time.Duration
			if err := g.StartRebuild(0, func(now time.Duration) { done = now }); err != nil {
				return 0, err
			}
			if withScrub {
				if err := g.StartScrub(nil); err != nil {
					return 0, err
				}
			}
			if err := g.Sim().RunUntil(time.Hour); err != nil {
				return 0, err
			}
			if done == 0 {
				return 0, fmt.Errorf("rebuild never finished")
			}
			snap := fmt.Sprintf("%+v done=%v", g.Stats(), done)
			if snapshot == "" {
				snapshot = snap
			} else if snap != snapshot {
				return 0, fmt.Errorf("group stats diverged across iterations:\n%s\nvs\n%s", snap, snapshot)
			}
			return g.Sim().Fired(), nil
		})
		if err != nil {
			return res, err
		}
		return res, nil
	}
	res, err = rebuild("scenario/declustered-rebuild", false)
	if err := add(res, err); err != nil {
		return nil, err
	}
	res, err = rebuild("scenario/declustered-scrub", true)
	if err := add(res, err); err != nil {
		return nil, err
	}

	// BSA replay: the scheduler's learn-and-segregate path under a trace
	// with a planted bad-sector population and bounded retries.
	spec, ok := trace.ByName("TPCdisk66")
	if !ok {
		return nil, fmt.Errorf("scenario/sched-bsa: unknown catalog trace")
	}
	dur := 60 * time.Second
	if quick {
		dur = 20 * time.Second
	}
	tr := spec.Generate(1, dur)
	res, err = measure("scenario/sched-bsa", iters, func() (uint64, error) {
		s := sim.New()
		d := disk.MustNew(disk.DemoSmall())
		for i := int64(0); i < 300; i++ {
			d.InjectLSE((i * 9973) % d.Sectors())
		}
		q := blockdev.NewQueue(s, d, iosched.NewBSA())
		q.SetRetryPolicy(blockdev.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond})
		r, err := (&replay.Replayer{}).RunSource(s, q, tr.Source(), tr.DiskSectors)
		if err != nil {
			return 0, err
		}
		if r.Requests != int64(len(tr.Records)) {
			return 0, fmt.Errorf("completed %d of %d records", r.Requests, len(tr.Records))
		}
		return s.Fired(), nil
	})
	if err == nil {
		res.Extra = map[string]float64{
			"records_per_sec": float64(len(tr.Records)) / (res.NsPerOp / 1e9),
		}
	}
	if err := add(res, err); err != nil {
		return nil, err
	}

	run.PeakRSSBytes = peakRSS()
	return run, nil
}
