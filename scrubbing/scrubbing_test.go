package scrubbing_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/scrubbing"
)

// TestFacadeCampaign runs the package-comment workflow end to end using
// only the public surface: catalog lookup, tuning, fault injection,
// instrumented run, report.
func TestFacadeCampaign(t *testing.T) {
	profile, ok := scrubbing.TraceByName("MSRsrc11")
	if !ok {
		t.Fatal("MSRsrc11 missing from catalog")
	}
	tr := profile.Generate(42, 30*time.Minute)

	reg := scrubbing.NewRegistry()
	demo := scrubbing.DemoDisk()
	sys, choice, err := scrubbing.NewTuned(tr.Source(), demo,
		scrubbing.Goal{MeanSlowdown: 2 * time.Millisecond, MaxSlowdown: 50 * time.Millisecond},
		scrubbing.Staggered,
		scrubbing.WithFaults(scrubbing.Bursty{RatePerHour: 720, MeanBurst: 4, ClusterSectors: 1024}),
		scrubbing.WithAutoRepair(),
		scrubbing.WithEscalation(),
		scrubbing.WithRetryPolicy(scrubbing.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond}),
		scrubbing.WithObs(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	if choice.ReqSectors <= 0 || choice.Threshold <= 0 {
		t.Fatalf("bad tuned choice %+v", choice)
	}
	sys.Start()
	if err := sys.RunFor(context.Background(), 10*time.Minute); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	if rep.ScrubMBps <= 0 {
		t.Fatalf("campaign scrubbed nothing: %+v", rep)
	}
	if rep.LSEsInjected == 0 || rep.LSEsDetected == 0 {
		t.Fatalf("fault lifecycle idle: %+v", rep)
	}
	if !strings.Contains(rep.String(), "faults:") {
		t.Fatalf("report missing fault clause: %s", rep)
	}
}

// TestFacadeFleetEngine drives the sharded engine through the public
// surface: a two-class campaign advanced to a checkpointable waypoint,
// resumed from disk, and finished — with the resumed run's report
// byte-identical to the uninterrupted one.
func TestFacadeFleetEngine(t *testing.T) {
	demo := scrubbing.DemoDisk()
	classes := []scrubbing.FleetClass{
		{Name: "fixed", Count: 3, Config: scrubbing.SystemConfig{
			Model:      &demo,
			Algorithm:  scrubbing.Sequential,
			Policy:     scrubbing.PolicyFixedDelay,
			Delay:      200 * time.Millisecond,
			ReqBytes:   256 << 10,
			AutoRepair: true,
			Faults:     scrubbing.Uniform{RatePerHour: 60},
		}},
		{Name: "waiting", Count: 3, Config: scrubbing.SystemConfig{
			Model:         &demo,
			Algorithm:     scrubbing.Staggered,
			Regions:       64,
			Policy:        scrubbing.PolicyWaiting,
			WaitThreshold: 50 * time.Millisecond,
			ReqBytes:      128 << 10,
			AutoRepair:    true,
			Faults:        scrubbing.Uniform{RatePerHour: 40},
		}},
	}
	cfg := scrubbing.FleetEngineConfig{Shards: 4, Slice: 20 * time.Second, Seed: 7}
	const horizon = time.Minute

	ref, err := scrubbing.NewFleetEngine(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := ref.Run(context.Background(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if refRep.Members != 6 || refRep.ScrubbedBytes == 0 || refRep.Events == 0 {
		t.Fatalf("empty campaign: %+v", refRep)
	}

	e, err := scrubbing.NewFleetEngine(cfg, classes)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(context.Background(), 40*time.Second); err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/ckpt"
	if err := e.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	r, err := scrubbing.ResumeFleetFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := fmt.Sprintf("%+v", *refRep), fmt.Sprintf("%+v", *rep); a != b {
		t.Fatalf("resumed fleet report diverged:\nref:     %s\nresumed: %s", a, b)
	}
}
