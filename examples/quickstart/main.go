// Quickstart: build a drive, record a short workload profile, auto-tune
// the scrubber for a 2 ms mean-slowdown goal, and run a scrub campaign
// with latent-sector-error injection — the library's minimal end-to-end
// path, using only the public scrubbing package.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/scrubbing"
)

func main() {
	// 1. The workload profile: a short trace of the disk we want to
	// scrub. Here we use the calibrated stand-in for an MSR Cambridge
	// source-control disk; in production this is a captured blktrace.
	spec, ok := scrubbing.TraceByName("MSRsrc11")
	if !ok {
		log.Fatal("catalog trace missing")
	}
	profile := spec.Generate(42, time.Hour)
	fmt.Printf("profiled workload: %d requests over 1h\n", len(profile.Records))

	// 2. Auto-tune: the administrator states tolerable slowdown; the
	// tuner returns the throughput-maximizing request size and wait
	// threshold (the paper's Section V-D recipe). On top of the tuned
	// configuration we attach a bursty latent-sector-error model — the
	// errors scrubbing exists to catch — with remap-on-detect repair and
	// region re-scrub escalation.
	m := scrubbing.Ultrastar15K450()
	goal := scrubbing.Goal{
		MeanSlowdown: 2 * time.Millisecond,
		MaxSlowdown:  50 * time.Millisecond,
	}
	sys, choice, err := scrubbing.NewTuned(profile.Source(), m, goal, scrubbing.Staggered,
		scrubbing.WithFaults(scrubbing.Bursty{RatePerHour: 12}),
		scrubbing.WithAutoRepair(),
		scrubbing.WithEscalation(),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuned: %s\n", choice)

	// 3. Run the campaign. Staggered scrubbing probes the head of every
	// region early in each pass, so spatially clustered bursts are
	// detected long before a sequential scan would reach them.
	sys.Start()
	if err := sys.RunFor(context.Background(), 10*time.Minute); err != nil {
		log.Fatal(err)
	}

	rep := sys.Report()
	fmt.Printf("after 10 minutes of idle-time scrubbing:\n")
	fmt.Printf("  %s\n", rep)
	fmt.Printf("  a full 300GB pass at this rate takes %.1f hours\n",
		300e9/(rep.ScrubMBps*1e6)/3600)
}
