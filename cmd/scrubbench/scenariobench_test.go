package main

import (
	"path/filepath"
	"testing"

	"repro/internal/benchcmp"
)

// TestRunScenarioBenchQuick executes the real quick scenario suite once
// and checks the record: every stage present with positive timing, the
// SSD service loop allocation-free, and a self-comparison that never
// regresses. The per-iteration determinism gates on the rebuild stages
// run implicitly inside runScenarioBench.
func TestRunScenarioBenchQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still runs full simulations")
	}
	run, err := runScenarioBench(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Schema != benchcmp.Schema || !run.Quick {
		t.Fatalf("run header wrong: %+v", run)
	}
	want := []string{
		"scenario/ssd-service", "scenario/ssd-scrub",
		"scenario/declustered-rebuild", "scenario/declustered-scrub",
		"scenario/sched-bsa",
	}
	if len(run.Results) != len(want) {
		t.Fatalf("suite produced %d results, want %d", len(run.Results), len(want))
	}
	for _, name := range want {
		r := run.Find(name)
		if r == nil {
			t.Fatalf("suite missing %s", name)
		}
		if r.NsPerOp <= 0 || r.CalNs <= 0 {
			t.Fatalf("%s: incomplete sample %+v", name, r)
		}
		if r.EventsPerSec <= 0 {
			t.Fatalf("%s: events_per_sec missing", name)
		}
	}
	// The flash fast path stays allocation-free at benchmark scale, the
	// same budget the disk package's zero-alloc pin enforces per request.
	if r := run.Find("scenario/ssd-service"); r.AllocsPerOp != 0 {
		t.Fatalf("ssd-service allocates %.1f per run, want 0", r.AllocsPerOp)
	}

	path := filepath.Join(t.TempDir(), "BENCH_SCENARIO_self.json")
	if err := run.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := benchcmp.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := benchcmp.Compare(loaded, run, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if regs := benchcmp.Regressions(deltas); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
}
