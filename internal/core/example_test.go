package core_test

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/optimize"
	"repro/internal/trace"
)

// ExampleNew runs an untuned Waiting-policy scrubber on an idle disk: the
// zero-configuration path. The simulation is deterministic, so the output
// is exact.
func ExampleNew() {
	sys, err := core.New(nil,
		core.WithPolicy(core.PolicyWaiting),
		core.WithWaitThreshold(100*time.Millisecond),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	sys.Start()
	if err := sys.RunFor(context.Background(), time.Minute); err != nil {
		fmt.Println(err)
		return
	}
	rep := sys.Report()
	fmt.Printf("policy=%s algorithm=%s scrubbing=%v\n",
		rep.Policy, rep.Algorithm, rep.ScrubMBps > 0)
	// Output:
	// policy=waiting algorithm=staggered scrubbing=true
}

// ExampleAutoTune derives the Section V-D parameters — scrub request size
// and wait threshold — from a workload profile and a slowdown budget.
func ExampleAutoTune() {
	spec, _ := trace.ByName("HPc3t3d0")
	profile := spec.Generate(5, 20*time.Minute)
	choice, err := core.AutoTune(context.Background(), profile.Source(), disk.HitachiUltrastar15K450(), optimize.Goal{
		MeanSlowdown: 2 * time.Millisecond,
		MaxSlowdown:  50 * time.Millisecond,
	}, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("meets goal: %v, request >= 64KB: %v, threshold > 0: %v\n",
		choice.Result.MeanSlowdown() <= 2*time.Millisecond,
		choice.ReqSectors >= 128,
		choice.Threshold > 0)
	// Output:
	// meets goal: true, request >= 64KB: true, threshold > 0: true
}

// ExampleSystem_Report shows the detect-and-correct loop: inject latent
// sector errors, scrub with AutoRepair, read the campaign report.
func ExampleSystem_Report() {
	small := disk.FujitsuMAX3073RC()
	small.CapacityBytes = 128 << 20
	small.Cylinders = 150
	sys, err := core.New(&small,
		core.WithPolicy(core.PolicyCFQIdle),
		core.WithAlgorithm(core.Sequential),
		core.WithAutoRepair(),
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	sys.Disk.InjectLSE(12345)
	sys.Start()
	if err := sys.RunFor(context.Background(), 20*time.Second); err != nil {
		fmt.Println(err)
		return
	}
	rep := sys.Report()
	fmt.Printf("found=%d repaired=%d latent=%d\n",
		rep.LSEsFound, rep.LSEsRepaired, sys.Disk.LSECount())
	// Output:
	// found=1 repaired=1 latent=0
}
