// Command policyeval compares scrub scheduling policies on one trace's
// idle-interval profile: the Fig. 14 frontier (idle time utilized vs
// collision rate) for Oracle, AR, Waiting, Lossless Waiting and the
// combined policies.
//
// Scenario modes widen the comparison beyond the scrub policy axis:
// -sched runs the I/O-scheduler head-to-head (CFQ/deadline/noop vs the
// bad-sector-aware schedulers), -layout the scrub-vs-rebuild
// interference table for clustered and declustered parity, -matrix the
// full device-model × scheduler matrix, and -disk <ssd model> the flash
// policy frontier on the SSD device model.
//
// Usage:
//
//	policyeval -trace HPc6t8d0 -dur 12h
//	policyeval -trace HPc6t8d0 -metrics prom
//	policyeval -sched -layout -quick
//	policyeval -disk demo-ssd -matrix
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "policyeval:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runTo(os.Stdout, args) }

func runTo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("policyeval", flag.ContinueOnError)
	name := fs.String("trace", "MSRusr2", "catalog trace name")
	quick := fs.Bool("quick", false, "short trace for a fast pass")
	seed := fs.Int64("seed", 1, "random seed")
	metrics := fs.String("metrics", "", "also run one instrumented Waiting-policy replay and dump its metrics: json | csv | prom")
	traceEvents := fs.Int("trace-events", 0, "record the last N events of the instrumented replay and dump them")
	faults := fs.String("faults", "", "inject LSEs during the instrumented replay: uniform | bursty | accel")
	faultRate := fs.Float64("fault-rate", 60, "fault events per hour")
	faultSeed := fs.Int64("fault-seed", 1, "fault stream RNG seed")
	schedCmp := fs.Bool("sched", false, "run the I/O-scheduler head-to-head on a drive with latent bad sectors")
	layoutCmp := fs.Bool("layout", false, "run the scrub-vs-rebuild interference table for clustered and declustered parity")
	matrix := fs.Bool("matrix", false, "run the device-model x scheduler scenario matrix")
	diskName := fs.String("disk", "", "run the flash policy frontier on this SSD model (demo-ssd, ssd/nvme)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *metrics != "" && !slices.Contains(obs.Formats, *metrics) {
		return fmt.Errorf("unknown metrics format %q (want one of %v)", *metrics, obs.Formats)
	}
	if *traceEvents < 0 {
		return fmt.Errorf("-trace-events must be >= 0")
	}
	o := experiments.Options{Quick: *quick, Seed: *seed}
	if *schedCmp || *layoutCmp || *matrix || *diskName != "" {
		return scenarioModes(w, o, *schedCmp, *layoutCmp, *matrix, *diskName)
	}
	start := time.Now()
	series := experiments.Fig14(o, *name)
	fmt.Fprint(w, experiments.RenderSeries(
		fmt.Sprintf("Policy frontier for %s (collision rate vs idle-time utilization)", *name), series))
	fmt.Fprintf(w, "(%d policies evaluated in %v)\n", len(series), time.Since(start).Round(time.Millisecond))
	if *metrics == "" && *traceEvents == 0 && *faults == "" {
		return nil
	}
	var fm fault.Model
	if *faults != "" {
		var err error
		fm, err = fault.ParseModel(*faults, *faultRate, 4, 1024, 0.05)
		if err != nil {
			return err
		}
	}
	return instrumentedReplay(w, *name, *seed, *quick, *metrics, *traceEvents, fm, *faultSeed)
}

// scenarioModes renders the requested scenario comparisons in a fixed
// order: scheduler head-to-head, layout interference, device × scheduler
// matrix, flash policy frontier.
func scenarioModes(w io.Writer, o experiments.Options, sched, layout, matrix bool, diskName string) error {
	if sched {
		fmt.Fprint(w, experiments.TableSchedulers(o).Render())
	}
	if layout {
		fmt.Fprint(w, experiments.TableRebuildInterference(o).Render())
	}
	if matrix {
		fmt.Fprint(w, experiments.ScenarioMatrix(o).Render())
	}
	if diskName != "" {
		dm, err := disk.FindModel(diskName)
		if err != nil {
			return err
		}
		ssd, ok := dm.(disk.SSDModel)
		if !ok {
			return fmt.Errorf("-disk %s: the policy frontier's flash mode wants an SSD model (demo-ssd, nvme); Fig. 14 already covers rotating media", diskName)
		}
		fmt.Fprint(w, experiments.RenderSeries(
			fmt.Sprintf("Flash policy frontier on %s (scrub MB/s vs threshold ms)", ssd.Name),
			experiments.FigSSDPoliciesOn(o, ssd)))
	}
	return nil
}

// instrumentedReplay replays the named trace through the full queueing
// stack under the Waiting policy with every layer instrumented, then
// dumps the snapshot. The Fig. 14 frontier itself runs on the analytic
// idle-interval engine, which has no queue to instrument; this run is
// the queueing-level counterpart on the same workload.
func instrumentedReplay(w io.Writer, name string, seed int64, quick bool, format string, traceEvents int, fm fault.Model, faultSeed int64) error {
	spec, ok := trace.ByName(name)
	if !ok {
		return fmt.Errorf("unknown trace %q", name)
	}
	dur := 5 * time.Minute
	if quick {
		dur = time.Minute
	}
	tr := spec.Generate(seed, dur)

	var opts []obs.Option
	if traceEvents > 0 {
		opts = append(opts, obs.WithTrace(traceEvents))
	}
	reg := obs.New(opts...)
	copts := []core.Option{core.WithPolicy(core.PolicyWaiting), core.WithObs(reg)}
	if fm != nil {
		copts = append(copts, core.WithFaults(fm), core.WithFaultSeed(faultSeed),
			core.WithAutoRepair(), core.WithEscalation())
	}
	sys, err := core.New(nil, copts...)
	if err != nil {
		return err
	}
	sys.Start()
	if _, err := (&replay.Replayer{}).RunSource(sys.Sim, sys.Queue, tr.Source(), tr.DiskSectors); err != nil {
		return err
	}
	if sys.Faults != nil {
		fs := sys.Faults.Stats()
		fmt.Fprintf(w, "faults: %d injected, %d detected (%.1f%%), %d remapped, mean TTD %v\n",
			fs.Injected, fs.Detected, 100*fs.DetectionRatio(), fs.Remapped,
			fs.MeanTimeToDetection().Round(time.Millisecond))
	}
	if format != "" {
		fmt.Fprintf(w, "--- metrics (%s) ---\n", format)
		if err := reg.Snapshot().WriteTo(w, format); err != nil {
			return err
		}
	}
	if traceEvents > 0 {
		events := reg.Trace().Events()
		fmt.Fprintf(w, "--- events (last %d of %d) ---\n", len(events), reg.Trace().Total())
		for _, ev := range events {
			fmt.Fprintln(w, ev.String())
		}
	}
	return nil
}
