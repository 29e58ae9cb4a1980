// Command scrubtune implements the paper's Section V-D recipe as a tool:
// feed it a workload trace (catalog name or CSV) and a slowdown goal, get
// back the throughput-maximizing scrub request size and Waiting threshold
// (a Table III row).
//
// Usage:
//
//	scrubtune -trace HPc6t8d0 -mean-slowdown 1ms -max-slowdown 50.4ms
//	scrubtune -file mytrace.csv -mean-slowdown 2ms
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/optimize"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "scrubtune:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("scrubtune", flag.ContinueOnError)
	traceName := fs.String("trace", "MSRsrc11", "catalog trace name")
	file := fs.String("file", "", "trace file (overrides -trace); format sniffed unless -format is set")
	format := fs.String("format", "auto", "trace file format: auto | native | msr | cello | blktrace | cache")
	msrDisk := fs.Int("msr-disk", -1, "MSR DiskNumber filter (-1 = all)")
	meanSlow := fs.Duration("mean-slowdown", time.Millisecond, "average tolerable slowdown per request")
	maxSlow := fs.Duration("max-slowdown", 50400*time.Microsecond, "maximum tolerable slowdown per request")
	dur := fs.Duration("dur", 6*time.Hour, "trace duration to profile")
	seed := fs.Int64("seed", 1, "random seed")
	parallel := fs.Int("parallel", 0, "worker goroutines for the size sweep (0 = GOMAXPROCS, 1 = serial); the tuned choice is identical for every value")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The tuner only consumes the workload's arrival process, so a file
	// trace streams through in constant per-record memory: one pass
	// collects the arrival instants for the shape profile, a reset pass
	// feeds the idle gaps to the optimizer. Records are never
	// materialized.
	var src trace.Source
	if *file != "" {
		s, err := trace.OpenFile(*file, *format, *msrDisk)
		if err != nil {
			return err
		}
		defer trace.CloseSource(s)
		src = s
	} else {
		spec, ok := trace.ByName(*traceName)
		if !ok {
			return fmt.Errorf("unknown trace %q", *traceName)
		}
		src = spec.Source(*seed, *dur)
	}
	var arrivals []time.Duration
	if err := trace.EachArrival(src, func(at time.Duration) bool {
		arrivals = append(arrivals, at)
		return true
	}); err != nil {
		return err
	}
	if err := src.Reset(); err != nil {
		return err
	}

	// Quick sanity on the workload shape before tuning.
	profile := stats.ProfileArrivals(arrivals)
	if !profile.WaitingFriendly() {
		fmt.Println("note: workload is not waiting-friendly (memoryless or thin idle tail);")
		fmt.Println("      the tuned throughput will be modest. Profile:")
		fmt.Println(profile)
		fmt.Println()
	}

	m := disk.HitachiUltrastar15K450()
	choice, err := core.AutoTune(context.Background(), src, m, optimize.Goal{
		MeanSlowdown: *meanSlow,
		MaxSlowdown:  *maxSlow,
	}, *parallel)
	if err != nil {
		return err
	}
	fmt.Printf("profiled:        %d requests\n", len(arrivals))
	fmt.Printf("goal:            mean %v, max %v\n", *meanSlow, *maxSlow)
	fmt.Printf("request size:    %d KB\n", choice.ReqSectors/2)
	fmt.Printf("wait threshold:  %v\n", choice.Threshold.Round(100*time.Microsecond))
	fmt.Printf("scrub rate:      %.2f MB/s\n", choice.Result.ThroughputMBps())
	fmt.Printf("mean slowdown:   %.3f ms\n", choice.Result.MeanSlowdown().Seconds()*1e3)
	fmt.Printf("collision rate:  %.4f\n", choice.Result.CollisionRate())
	full := 300e9 / (choice.Result.ThroughputMBps() * 1e6)
	fmt.Printf("full 300GB scan: %.1f hours at this rate\n", full/3600)
	return nil
}
