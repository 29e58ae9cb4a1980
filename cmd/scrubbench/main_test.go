package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/benchcmp"
)

// TestRunSuiteQuick executes the real quick suite once and checks the run
// record is complete and internally consistent — every suite member
// present, time metrics positive, replay hot path allocation-free per
// record, shard-count determinism implicitly asserted inside
// benchShardFleet.
func TestRunSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick suite still runs full simulations")
	}
	run, err := runSuite(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.Schema != benchcmp.Schema || !run.Quick {
		t.Fatalf("run header wrong: %+v", run)
	}
	if _, err := time.Parse("2006-01-02", run.Date); err != nil {
		t.Fatalf("run date %q not YYYY-MM-DD: %v", run.Date, err)
	}
	if run.PeakRSSBytes <= 0 {
		t.Fatalf("peak RSS %d, want > 0", run.PeakRSSBytes)
	}
	want := []string{
		"replay/TPCdisk66", "replay/HPc3t3d0",
		"policy/waiting", "policy/ar",
		"tuner/sweep",
		"shardfleet/shards-1", "shardfleet/shards-8",
	}
	if len(run.Results) != len(want) {
		t.Fatalf("suite produced %d results, want %d", len(run.Results), len(want))
	}
	for _, name := range want {
		r := run.Find(name)
		if r == nil {
			t.Fatalf("suite missing %s", name)
		}
		if r.NsPerOp <= 0 {
			t.Fatalf("%s: ns_per_op %v, want > 0", name, r.NsPerOp)
		}
		if r.CalNs <= 0 {
			t.Fatalf("%s: calibration missing", name)
		}
	}
	for _, name := range []string{"replay/TPCdisk66", "replay/HPc3t3d0"} {
		r := run.Find(name)
		// The tentpole's acceptance bar: steady-state replay allocates a
		// fixed handful per run (Result header), not per record.
		if r.AllocsPerOp > 8 {
			t.Fatalf("%s: %v allocs per replay, want fixed overhead only", name, r.AllocsPerOp)
		}
		if r.Extra["records_per_sec"] <= 0 {
			t.Fatalf("%s: records_per_sec missing", name)
		}
		if r.EventsPerSec <= 0 {
			t.Fatalf("%s: events_per_sec missing", name)
		}
	}

	// Round-trip through the file format and self-compare: a run diffed
	// against itself must never regress.
	path := filepath.Join(t.TempDir(), "BENCH_self.json")
	if err := run.Write(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := benchcmp.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := benchcmp.Compare(loaded, run, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	if regs := benchcmp.Regressions(deltas); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
}

// TestRunSweepSmall executes the -max-drives sweep at toy scale and
// checks the record carries the throughput and footprint figures the
// datacenter runs are judged by.
func TestRunSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs full simulations")
	}
	run, err := runSweep(200, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if run.PeakRSSBytes <= 0 {
		t.Fatalf("peak RSS %d, want > 0", run.PeakRSSBytes)
	}
	var drives float64
	for _, name := range []string{"sweep/fixed", "sweep/waiting"} {
		r := run.Find(name)
		if r == nil {
			t.Fatalf("sweep missing %s", name)
		}
		if r.NsPerOp <= 0 || r.EventsPerSec <= 0 {
			t.Fatalf("%s: degenerate metrics %+v", name, r)
		}
		if r.Extra["members_per_sec"] <= 0 {
			t.Fatalf("%s: members_per_sec missing", name)
		}
		drives += r.Extra["drives"]
	}
	if drives != 200 {
		t.Fatalf("sweep covered %v drives, want all 200", drives)
	}
}

func TestBestOfPicksFasterSamplePerBenchmark(t *testing.T) {
	a := &benchcmp.Run{
		Schema: benchcmp.Schema, PeakRSSBytes: 100,
		Results: []benchcmp.Result{
			{Name: "x", NsPerOp: 50, EventsPerSec: 200, CalNs: 10},
			{Name: "y", NsPerOp: 90, EventsPerSec: 110, CalNs: 12},
		},
	}
	b := &benchcmp.Run{
		Schema: benchcmp.Schema, PeakRSSBytes: 300,
		Results: []benchcmp.Result{
			{Name: "x", NsPerOp: 70, EventsPerSec: 140, CalNs: 14},
			{Name: "y", NsPerOp: 60, EventsPerSec: 160, CalNs: 8},
		},
	}
	m := bestOf(a, b)
	if m.PeakRSSBytes != 300 {
		t.Fatalf("peak RSS %d, want max of both runs", m.PeakRSSBytes)
	}
	// x was faster in run a, y in run b; each must carry its own run's
	// calibration and throughput, never a mix.
	if x := m.Find("x"); x.NsPerOp != 50 || x.CalNs != 10 || x.EventsPerSec != 200 {
		t.Fatalf("x = %+v, want run a's sample", x)
	}
	if y := m.Find("y"); y.NsPerOp != 60 || y.CalNs != 8 || y.EventsPerSec != 160 {
		t.Fatalf("y = %+v, want run b's sample", y)
	}
	// Inputs untouched.
	if a.Results[1].NsPerOp != 90 || a.PeakRSSBytes != 100 {
		t.Fatalf("bestOf mutated its input: %+v", a)
	}
}

// TestGateConfirmsBeforeFailing drives gate with canned runs against a
// baseline: a regression that persists fails after two confirming
// re-runs, a one-run noise episode passes with the better sample
// written out, and a baseline from another GOMAXPROCS is refused.
func TestGateConfirmsBeforeFailing(t *testing.T) {
	dir := t.TempDir()
	mk := func(ns float64) *benchcmp.Run {
		run := benchcmp.NewRun(true)
		run.Results = []benchcmp.Result{{Name: "x", NsPerOp: ns}}
		return run
	}
	basePath := filepath.Join(dir, "base.json")
	if err := mk(100).Write(basePath); err != nil {
		t.Fatal(err)
	}
	runs := func(ns ...float64) (func() (*benchcmp.Run, error), *int) {
		calls := 0
		return func() (*benchcmp.Run, error) {
			calls++
			return mk(ns[min(calls, len(ns))-1]), nil
		}, &calls
	}
	out := filepath.Join(dir, "out.json")

	slow, calls := runs(200)
	if err := gate(slow, out, "", basePath, 0.15); err == nil || *calls != 3 {
		t.Fatalf("persistent regression: err %v after %d runs, want an error after 3", err, *calls)
	}
	noisy, calls := runs(200, 105)
	if err := gate(noisy, out, "", basePath, 0.15); err != nil || *calls != 2 {
		t.Fatalf("noise episode: err %v after %d runs, want a pass after 2", err, *calls)
	}
	written, err := benchcmp.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if r := written.Find("x"); r == nil || r.NsPerOp != 105 {
		t.Fatalf("written run %+v, want the confirming re-run's sample", written.Results)
	}

	other := mk(100)
	other.Host.GOMAXPROCS++
	if err := other.Write(basePath); err != nil {
		t.Fatal(err)
	}
	same, _ := runs(100)
	if err := gate(same, out, "", basePath, 0.15); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Fatalf("GOMAXPROCS mismatch: err %v, want a refusal", err)
	}
}

// TestCalKernelMatchesE2ebench pins the calibration kernel to e2ebench's
// copy, so both gates rescale by the same reference work.
func TestCalKernelMatchesE2ebench(t *testing.T) {
	kernel := func(path string) string {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := string(src)
		from, to := strings.Index(s, "type calEvent struct"), strings.Index(s, "return time.Since(t0)")
		if from < 0 || to < from {
			t.Fatalf("%s: calibration kernel not found", path)
		}
		return s[from:to]
	}
	if kernel("main.go") != kernel(filepath.Join("..", "..", "e2ebench", "calib.go")) {
		t.Fatal("calibration kernel differs from e2ebench/calib.go")
	}
}

func TestCalibrateStable(t *testing.T) {
	a, b := calibrate(), calibrate()
	if a <= 0 || b <= 0 {
		t.Fatalf("calibration returned %v, %v", a, b)
	}
	ratio := float64(a) / float64(b)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("back-to-back calibrations differ by %vx", ratio)
	}
}

func TestPeakRSS(t *testing.T) {
	if rss := peakRSS(); rss <= 0 {
		t.Fatalf("peakRSS = %d, want > 0", rss)
	}
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Log("no /proc on this platform; MemStats fallback exercised")
	}
}
