// Command scrubsim runs a scrub campaign against a workload trace on a
// simulated drive and reports foreground impact and scrub progress.
//
// Usage:
//
//	scrubsim -trace MSRsrc11 -policy waiting -threshold 100ms -size 1MB -dur 30m
//	scrubsim -file mytrace.csv -policy cfq-idle
//	scrubsim -disk demo -faults bursty -fault-rate 60 -dur 30m -metrics json
//	scrubsim -disk demo-ssd -sched bsa -policy waiting -dur 10m
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scrubsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runTo(os.Stdout, args) }

func runTo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("scrubsim", flag.ContinueOnError)
	traceName := fs.String("trace", "MSRsrc11", "catalog trace name (see cmd/tracegen -list)")
	file := fs.String("file", "", "trace file (overrides -trace); format sniffed unless -format is set")
	format := fs.String("format", "auto", "trace file format: auto | native | msr | cello | blktrace | cache")
	msrDisk := fs.Int("msr-disk", -1, "MSR DiskNumber filter (-1 = all)")
	policyName := fs.String("policy", "waiting", "cfq-idle | fixed-delay | waiting | ar | ar+waiting")
	algName := fs.String("alg", "staggered", "sequential | staggered")
	regions := fs.Int("regions", 128, "staggered regions")
	size := fs.Int64("size", 64<<10, "scrub request size in bytes")
	threshold := fs.Duration("threshold", 100*time.Millisecond, "waiting/AR threshold")
	delay := fs.Duration("delay", 16*time.Millisecond, "fixed-delay pause")
	dur := fs.Duration("dur", 30*time.Minute, "trace duration to simulate")
	seed := fs.Int64("seed", 1, "random seed")
	diskName := fs.String("disk", "", "device model: demo, demo-ssd, ssd/nvme, or a (substring of a) catalog name; default Ultrastar 15K450")
	schedName := fs.String("sched", "", "I/O scheduler: cfq (default) | deadline | noop | bsa | bsa-repair")
	faults := fs.String("faults", "", "LSE arrival model: uniform | bursty | accel (empty = no fault injection)")
	faultRate := fs.Float64("fault-rate", 60, "fault events per hour")
	faultBurst := fs.Float64("fault-burst", 4, "mean sectors per fault event (bursty/accel)")
	faultCluster := fs.Int64("fault-cluster", 1024, "burst spatial spread in sectors")
	faultGrowth := fs.Float64("fault-growth", 0.05, "accel: fractional rate growth per hour")
	faultSeed := fs.Int64("fault-seed", 1, "fault stream RNG seed")
	metrics := fs.String("metrics", "", "dump a metrics snapshot after the run: json | csv | prom")
	traceEvents := fs.Int("trace-events", 0, "record the last N simulation events and dump them after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Per-model threshold defaults: when -threshold is not given, the
	// device model picks (100ms for disks, shorter for flash). An explicit
	// flag always wins.
	thresholdSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "threshold" {
			thresholdSet = true
		}
	})
	if *metrics != "" && !slices.Contains(obs.Formats, *metrics) {
		return fmt.Errorf("unknown metrics format %q (want one of %v)", *metrics, obs.Formats)
	}
	if *traceEvents < 0 {
		return fmt.Errorf("-trace-events must be >= 0")
	}

	var records []trace.Record
	var diskSectors int64
	if *file != "" {
		src, err := trace.OpenFile(*file, *format, *msrDisk)
		if err != nil {
			return err
		}
		defer trace.CloseSource(src)
		tr, err := trace.ReadAll(src)
		if err != nil {
			return err
		}
		records, diskSectors = tr.Records, tr.DiskSectors
	} else {
		spec, ok := trace.ByName(*traceName)
		if !ok {
			return fmt.Errorf("unknown trace %q", *traceName)
		}
		tr := spec.Generate(*seed, *dur)
		records, diskSectors = tr.Records, tr.DiskSectors
	}

	policy, err := core.ParsePolicy(*policyName)
	if err != nil {
		return err
	}
	alg := core.Staggered
	if *algName == "sequential" {
		alg = core.Sequential
	} else if *algName != "staggered" {
		return fmt.Errorf("unknown algorithm %q", *algName)
	}

	var reg *obs.Registry
	if *metrics != "" || *traceEvents > 0 {
		var opts []obs.Option
		if *traceEvents > 0 {
			opts = append(opts, obs.WithTrace(*traceEvents))
		}
		reg = obs.New(opts...)
	}

	model, err := disk.FindModel(*diskName)
	if err != nil {
		return err
	}
	opts := []core.Option{
		core.WithDevice(model),
		core.WithIOSched(*schedName),
		core.WithAlgorithm(alg),
		core.WithRegions(*regions),
		core.WithPolicy(policy),
		core.WithRequestBytes(*size),
		core.WithDelay(*delay),
		core.WithObs(reg),
	}
	if thresholdSet {
		opts = append(opts, core.WithWaitThreshold(*threshold), core.WithARThreshold(*threshold))
	} else {
		opts = append(opts, core.WithARThreshold(model.DefaultWaitThreshold()))
	}
	if *faults != "" {
		fm, err := fault.ParseModel(*faults, *faultRate, *faultBurst, *faultCluster, *faultGrowth)
		if err != nil {
			return err
		}
		// Fault campaigns exercise the full LSE lifecycle: detection,
		// remap-on-detect (auto-repair), region re-scrub escalation, and a
		// drive-style bounded retry loop at the block layer.
		opts = append(opts,
			core.WithFaults(fm),
			core.WithFaultSeed(*faultSeed),
			core.WithAutoRepair(),
			core.WithEscalation(),
			core.WithRetryPolicy(blockdev.RetryPolicy{
				MaxRetries: 2,
				Backoff:    time.Millisecond,
				Timeout:    100 * time.Millisecond,
			}),
		)
	}
	sys, err := core.New(nil, opts...)
	if err != nil {
		return err
	}

	// Baseline replay (no scrubber) for slowdown accounting, through the
	// same device model and scheduler.
	base, err := replayOnce(model, *schedName, records, diskSectors)
	if err != nil {
		return err
	}
	sys.Start()
	res, err := (&replay.Replayer{}).RunSource(sys.Sim, sys.Queue, trace.NewSliceSource("", diskSectors, records), diskSectors)
	if err != nil {
		return err
	}

	rep := sys.Report()
	fmt.Fprintf(w, "trace:             %d requests over %v\n", res.Requests, res.Span.Round(time.Second))
	fmt.Fprintf(w, "policy:            %s (%s)\n", rep.Policy, rep.Algorithm)
	fmt.Fprintf(w, "scrub throughput:  %.2f MB/s (pass %.1f%%, %d full passes)\n", rep.ScrubMBps, 100*rep.PassProgress, rep.Passes)
	fmt.Fprintf(w, "fg mean response:  %.3f ms\n", res.MeanResponse()*1e3)
	fmt.Fprintf(w, "fg mean slowdown:  %.3f ms\n", res.MeanSlowdownVs(base).Seconds()*1e3)
	fmt.Fprintf(w, "fg max slowdown:   %.3f ms\n", res.MaxSlowdownVs(base).Seconds()*1e3)
	fmt.Fprintf(w, "collision rate:    %.4f\n", res.CollisionRate())
	if sys.Faults != nil {
		fs := sys.Faults.Stats()
		fmt.Fprintf(w, "faults injected:   %d (model %s)\n", fs.Injected, *faults)
		fmt.Fprintf(w, "faults detected:   %d (%.1f%%)\n", fs.Detected, 100*fs.DetectionRatio())
		fmt.Fprintf(w, "faults remapped:   %d (%d cleared by overwrites, %d outstanding)\n",
			fs.Remapped, fs.ClearedUndetected, fs.Outstanding())
		fmt.Fprintf(w, "mean detect time:  %v (escalations: %d)\n",
			fs.MeanTimeToDetection().Round(time.Millisecond), rep.Escalations)
	}
	return dumpObs(w, reg, *metrics, *traceEvents)
}

// dumpObs writes the metrics snapshot and/or event-trace tail after the
// human-readable report. The "--- metrics (<fmt>) ---" marker lets
// consumers split the machine-readable part from the report.
func dumpObs(w io.Writer, reg *obs.Registry, format string, traceEvents int) error {
	if reg == nil {
		return nil
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

// replayOnce runs records through a fresh scrubber-free stack on the
// same device model and scheduler as the scrubbed run.
func replayOnce(dm disk.DeviceModel, sched string, records []trace.Record, diskSectors int64) (*replay.Result, error) {
	s := sim.New()
	d, err := dm.NewDevice()
	if err != nil {
		return nil, err
	}
	sc, err := iosched.New(sched)
	if err != nil {
		return nil, err
	}
	q := blockdev.NewQueue(s, d, sc)
	return (&replay.Replayer{}).RunSource(s, q, trace.NewSliceSource("", diskSectors, records), diskSectors)
}
