// Command traceanal runs the paper's Section V-A statistical analysis on a
// block I/O trace: idle-interval summary (Table II), ANOVA periodicity
// (Fig. 9), autocorrelation, tail concentration (Fig. 10) and the
// hazard-rate curves (Figs. 11-13).
//
// Usage:
//
//	traceanal -trace MSRsrc11 -dur 12h
//	traceanal -file mytrace.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "traceanal:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runTo(os.Stdout, args) }

func runTo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("traceanal", flag.ContinueOnError)
	name := fs.String("trace", "MSRsrc11", "catalog trace name")
	file := fs.String("file", "", "trace file (overrides -trace); format sniffed unless -format is set")
	format := fs.String("format", "auto", "trace file format: auto | native | msr | cello | blktrace | cache")
	msrDisk := fs.Int("msr-disk", -1, "MSR DiskNumber filter (-1 = all)")
	dur := fs.Duration("dur", 12*time.Hour, "duration to generate (catalog traces)")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tr *trace.Trace
	if *file != "" {
		src, err := trace.OpenFile(*file, *format, *msrDisk)
		if err != nil {
			return err
		}
		defer trace.CloseSource(src)
		if tr, err = trace.ReadAll(src); err != nil {
			return err
		}
		if tr.Name == "" {
			tr.Name = *file
		}
	} else {
		spec, ok := trace.ByName(*name)
		if !ok {
			return fmt.Errorf("unknown trace %q", *name)
		}
		tr = spec.Generate(*seed, *dur)
	}

	fmt.Fprintf(w, "trace: %s\n\n", tr.Name)

	// The one-stop Section V-A characterization.
	profile := stats.ProfileArrivals(tr.Arrivals())
	fmt.Fprintln(w, profile)
	if profile.WaitingFriendly() {
		fmt.Fprintln(w, "\nverdict: waiting-friendly — a tuned Waiting scrubber will hide well here")
	} else {
		fmt.Fprintln(w, "\nverdict: not waiting-friendly (memoryless or thin idle tail)")
	}

	// Fig. 13 detail: the wait-threshold trade-off table.
	gaps := stats.IdleGaps(tr.Arrivals())
	a := stats.NewIdleAnalysis(gaps)
	fmt.Fprintf(w, "\nusable idle time after waiting (Fig. 13):\n")
	for _, wait := range []float64{0.01, 0.05, 0.1, 0.5, 1} {
		fmt.Fprintf(w, "  wait %6.0f ms -> %5.1f%% usable, %5.2f%% of intervals picked\n",
			wait*1e3, 100*a.UsableAfterWait(wait), 100*a.FractionLonger(wait))
	}
	return nil
}
