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

	reg := scrubbing.NewRegistry(scrubbing.WithEventTrace(32))
	demo := scrubbing.DemoDisk()
	sys, choice, err := scrubbing.NewTuned(tr.Records, demo,
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

// TestFacadeCatalogsAndModels exercises the standalone helpers.
func TestFacadeCatalogsAndModels(t *testing.T) {
	if len(scrubbing.DiskCatalog()) == 0 {
		t.Fatal("empty disk catalog")
	}
	if len(scrubbing.TraceCatalog()) == 0 {
		t.Fatal("empty trace catalog")
	}
	if scrubbing.Ultrastar15K450().CapacityBytes <= scrubbing.DemoDisk().CapacityBytes {
		t.Fatal("demo disk not smaller than the testbed drive")
	}
	if _, err := scrubbing.ParseFaultModel("bursty", 10, 4, 1024, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := scrubbing.ParseFaultModel("bogus", 10, 4, 1024, 0); err == nil {
		t.Fatal("bogus fault model accepted")
	}
}

// TestPolicyAndAlgorithmNames pins the re-exported enum values.
func TestPolicyAndAlgorithmNames(t *testing.T) {
	names := map[string]scrubbing.PolicyKind{
		"cfq-idle":    scrubbing.PolicyCFQIdle,
		"fixed-delay": scrubbing.PolicyFixedDelay,
		"waiting":     scrubbing.PolicyWaiting,
		"ar":          scrubbing.PolicyAR,
		"ar+waiting":  scrubbing.PolicyARWaiting,
	}
	for want, kind := range names {
		if kind.String() != want {
			t.Fatalf("%v.String() = %q, want %q", int(kind), kind.String(), want)
		}
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
	build := func() *scrubbing.FleetEngine {
		e, err := scrubbing.NewFleetEngine(scrubbing.FleetEngineConfig{
			Shards: 4, Slice: 20 * time.Second, Seed: 7,
		}, classes)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	const horizon = time.Minute

	ref := build()
	refRep, err := ref.Run(context.Background(), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if refRep.Members != 6 || refRep.ScrubbedBytes == 0 || refRep.Events == 0 {
		t.Fatalf("empty campaign: %+v", refRep)
	}

	e := build()
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

// TestFacadeScenarios exercises the scenario surface end to end through
// the public facade only: an SSD system on the bad-sector-aware
// scheduler, and a declustered parity group whose rebuild outcome is
// checked against the analytic reliability model.
func TestFacadeScenarios(t *testing.T) {
	ssd := scrubbing.DemoSSD()
	sys, err := scrubbing.New(nil,
		scrubbing.WithDevice(ssd),
		scrubbing.WithIOSched("bsa"),
		scrubbing.WithAlgorithm(scrubbing.Sequential),
		scrubbing.WithRequestBytes(1<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	sys.Device.InjectLSE(12345)
	sys.Start()
	if err := sys.RunFor(context.Background(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if rep := sys.Report(); rep.ScrubMBps <= 0 || rep.LSEsFound < 1 {
		t.Fatalf("SSD facade campaign made no progress: %+v", rep)
	}
	if dm, err := scrubbing.FindDeviceModel("demo-ssd"); err != nil || dm.DeviceName() != ssd.Name {
		t.Fatalf("FindDeviceModel(demo-ssd) = %v, %v", dm, err)
	}
	if len(scrubbing.SSDCatalog()) == 0 || scrubbing.NVMeSSD().Name == "" {
		t.Fatal("flash catalog empty")
	}
	if s := scrubbing.NewBSARepair(); s.BadRanges() != 0 {
		t.Fatal("fresh BSA knows bad ranges")
	}

	m := scrubbing.DemoDisk()
	m.CapacityBytes = 64 << 20
	m.Cylinders = 100
	g, err := scrubbing.NewRAIDGroup(scrubbing.RAIDConfig{
		Disks: 6, Model: m, Layout: scrubbing.LayoutDeclustered, StripeWidth: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	var done time.Duration
	if err := g.StartRebuild(0, func(now time.Duration) { done = now }); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().RunUntil(time.Hour); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if done == 0 || st.RebuildRows == 0 {
		t.Fatalf("declustered rebuild made no progress: %+v", st)
	}
	if st.UnrecoverableStripes != 0 {
		t.Fatalf("clean rebuild lost %d stripes", st.UnrecoverableStripes)
	}
	rep, err := scrubbing.RAIDAnalyze(scrubbing.RAIDArray{
		Disks: 6, StripeWidth: 4, DiskMTTF: 1000 * 24 * time.Hour,
		RebuildTime: 10 * time.Minute, LSERate: 1e-15, ScrubMLET: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.PLossLSE > 0.01 {
		t.Fatalf("near-zero latent rate predicts loss %v", rep.PLossLSE)
	}
}
