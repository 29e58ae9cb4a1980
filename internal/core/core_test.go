package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/optimize"
	"repro/internal/trace"
)

func TestNewDefaults(t *testing.T) {
	sys, err := NewFromConfig(Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.Config()
	if cfg.Policy != PolicyWaiting || cfg.Algorithm != Staggered ||
		cfg.Regions != 128 || cfg.ReqBytes != 64<<10 {
		t.Fatalf("defaults = %+v", cfg)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	bad := disk.HitachiUltrastar15K450()
	bad.RPM = 0
	if _, err := NewFromConfig(Config{Model: &bad}); err == nil {
		t.Fatal("invalid model accepted")
	}
	if _, err := NewFromConfig(Config{Algorithm: AlgorithmKind(99)}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := NewFromConfig(Config{Policy: PolicyKind(99)}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestIdleSystemScrubsAfterKick(t *testing.T) {
	sys, err := NewFromConfig(Config{Policy: PolicyWaiting, WaitThreshold: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.RunFor(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	if rep.ScrubMBps <= 0 {
		t.Fatalf("idle system never scrubbed: %+v", rep)
	}
	if rep.Policy != "waiting" || rep.Algorithm != "staggered" {
		t.Fatalf("report identity wrong: %+v", rep)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestCFQIdlePolicyScrubs(t *testing.T) {
	sys, err := NewFromConfig(Config{Policy: PolicyCFQIdle, Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.RunFor(context.Background(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if sys.Report().ScrubMBps <= 0 {
		t.Fatal("cfq-idle system never scrubbed")
	}
}

func TestFixedDelayPolicyCapsRate(t *testing.T) {
	sys, err := NewFromConfig(Config{Policy: PolicyFixedDelay, Delay: 16 * time.Millisecond, Algorithm: Sequential})
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	if err := sys.RunFor(context.Background(), 4*time.Second); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	if rep.ScrubMBps <= 0 || rep.ScrubMBps > 3.9 {
		t.Fatalf("fixed-delay throughput %.2f, want (0, 3.9]", rep.ScrubMBps)
	}
}

func TestAutoTuneAndNewTuned(t *testing.T) {
	spec, _ := trace.ByName("HPc3t3d0")
	tr := spec.Generate(5, 20*time.Minute)
	m := disk.HitachiUltrastar15K450()
	goal := optimize.Goal{MeanSlowdown: 2 * time.Millisecond, MaxSlowdown: 50 * time.Millisecond}

	choice, err := AutoTune(context.Background(), tr.Source(), m, goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if choice.ReqSectors < 128 || choice.Threshold <= 0 {
		t.Fatalf("choice = %+v", choice)
	}
	if choice.Result.MeanSlowdown() > goal.MeanSlowdown {
		t.Fatalf("tuned config violates goal: %v", choice.Result.MeanSlowdown())
	}

	sys, c2, err := NewTuned(tr.Source(), m, goal, Staggered)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ReqSectors != choice.ReqSectors || c2.Threshold != choice.Threshold {
		t.Fatalf("NewTuned choice differs: %+v vs %+v", c2, choice)
	}
	if sys.Config().ReqBytes != choice.ReqSectors*disk.SectorSize {
		t.Fatal("tuned size not applied")
	}
	if sys.Config().WaitThreshold != choice.Threshold {
		t.Fatal("tuned threshold not applied")
	}
	sys.Start()
	if err := sys.RunFor(context.Background(), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if sys.Report().ScrubMBps <= 0 {
		t.Fatal("tuned system never scrubbed on an idle device")
	}
}

func TestAutoTuneErrors(t *testing.T) {
	m := disk.HitachiUltrastar15K450()
	goal := optimize.Goal{MeanSlowdown: time.Millisecond}
	if _, err := AutoTune(context.Background(), trace.NewSliceSource("empty", 0, nil), m, goal, 1); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, _, err := NewTuned(trace.NewSliceSource("empty", 0, nil), m, goal, Sequential); err == nil {
		t.Fatal("NewTuned accepted an empty trace")
	}
}

// TestPolicyKindString pins the policy names reports print and flags parse.
func TestPolicyKindString(t *testing.T) {
	names := map[string]PolicyKind{
		"cfq-idle":    PolicyCFQIdle,
		"fixed-delay": PolicyFixedDelay,
		"waiting":     PolicyWaiting,
		"ar":          PolicyAR,
		"ar+waiting":  PolicyARWaiting,
	}
	for want, kind := range names {
		if kind.String() != want {
			t.Fatalf("%v.String() = %q, want %q", int(kind), kind.String(), want)
		}
		if got, err := ParsePolicy(want); err != nil || got != kind {
			t.Fatalf("ParsePolicy(%q) = %v, %v", want, got, err)
		}
	}
	if _, err := ParsePolicy("PolicyKind(42)"); err == nil {
		t.Fatal("ParsePolicy accepted an unknown name")
	}
}

func TestLSEDetectionEndToEnd(t *testing.T) {
	small := disk.FujitsuMAX3073RC()
	small.CapacityBytes = 256 << 20
	small.Cylinders = 200
	sys, err := NewFromConfig(Config{Model: &small, Policy: PolicyCFQIdle, Algorithm: Staggered, Regions: 16})
	if err != nil {
		t.Fatal(err)
	}
	sys.Disk.InjectLSE(12345)
	sys.Disk.InjectLSE(400000)
	sys.Start()
	if err := sys.RunFor(context.Background(), 30*time.Second); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	if rep.Passes < 1 {
		t.Fatalf("no complete pass: %+v", rep)
	}
	if rep.LSEsFound < 2 {
		t.Fatalf("found %d LSEs, want 2", rep.LSEsFound)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []PolicyKind{PolicyCFQIdle, PolicyFixedDelay, PolicyWaiting, PolicyAR, PolicyARWaiting, PolicyKind(42)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatal("empty policy string")
		}
	}
}

func TestAutoRepairEndToEnd(t *testing.T) {
	small := disk.FujitsuMAX3073RC()
	small.CapacityBytes = 128 << 20
	small.Cylinders = 150
	sys, err := NewFromConfig(Config{
		Model:      &small,
		Policy:     PolicyCFQIdle,
		Algorithm:  Sequential,
		AutoRepair: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys.Disk.InjectLSE(4000)
	sys.Disk.InjectLSE(88888)
	sys.Start()
	if err := sys.RunFor(context.Background(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	rep := sys.Report()
	if rep.LSEsFound != 2 || rep.LSEsRepaired != 2 {
		t.Fatalf("found %d repaired %d, want 2/2", rep.LSEsFound, rep.LSEsRepaired)
	}
	if sys.Disk.LSECount() != 0 {
		t.Fatal("errors still latent")
	}
}
