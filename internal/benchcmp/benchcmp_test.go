package benchcmp

import (
	"path/filepath"
	"testing"
)

func baseRun() *Run {
	return &Run{
		Schema: Schema,
		Date:   "2026-08-06",
		Results: []Result{
			{
				Name:         "replay/TPCdisk66",
				NsPerOp:      10e6,
				AllocsPerOp:  4,
				EventsPerSec: 1e6,
				Extra:        map[string]float64{"records_per_sec": 600e3},
			},
			{Name: "queue/pooled", NsPerOp: 180, AllocsPerOp: 0},
		},
	}
}

func findDelta(t *testing.T, deltas []Delta, name, metric string) Delta {
	t.Helper()
	for _, d := range deltas {
		if d.Name == name && d.Metric == metric {
			return d
		}
	}
	t.Fatalf("no delta for %s %s in %v", name, metric, deltas)
	return Delta{}
}

func TestCompareWithinThreshold(t *testing.T) {
	base := baseRun()
	cur := baseRun()
	cur.Results[0].NsPerOp *= 1.10      // +10% slower: inside 15%
	cur.Results[0].EventsPerSec *= 0.90 // -10% throughput: inside
	cur.Results[1].AllocsPerOp = 1      // 0 -> 1: inside the alloc slack
	if regs := Regressions(Compare(base, cur, 0.15)); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareFlagsTimeRegression(t *testing.T) {
	base := baseRun()
	cur := baseRun()
	cur.Results[0].NsPerOp *= 1.30
	regs := Regressions(Compare(base, cur, 0.15))
	if len(regs) != 1 {
		t.Fatalf("want exactly the ns_per_op regression, got %v", regs)
	}
	d := findDelta(t, regs, "replay/TPCdisk66", "ns_per_op")
	if d.Pct < 0.29 || d.Pct > 0.31 {
		t.Fatalf("Pct = %v, want ~0.30", d.Pct)
	}
}

func TestCompareFlagsThroughputDrop(t *testing.T) {
	base := baseRun()
	cur := baseRun()
	cur.Results[0].EventsPerSec *= 0.5
	cur.Results[0].Extra["records_per_sec"] *= 0.5
	regs := Regressions(Compare(base, cur, 0.15))
	if len(regs) != 2 {
		t.Fatalf("want events_per_sec and records_per_sec regressions, got %v", regs)
	}
	findDelta(t, regs, "replay/TPCdisk66", "events_per_sec")
	findDelta(t, regs, "replay/TPCdisk66", "records_per_sec")
}

// TestCompareCountExtrasUnscaled pins that count extras ignore the
// host-speed factor: an unchanged count passes on a host twice as fast
// or as slow, and a changed count fails even where rescaling would have
// hidden it. Time extras ("_us") still rescale.
func TestCompareCountExtrasUnscaled(t *testing.T) {
	run := func(cal, drives, p50 float64) *Run {
		return &Run{Schema: Schema, Results: []Result{{
			Name: "shardfleet/shards-8", NsPerOp: 1e6 * cal / 20e6, CalNs: cal,
			Extra: map[string]float64{"drives": drives, "p50_us": p50 * cal / 20e6},
		}}}
	}
	base := run(20e6, 96, 500)
	// The old rescaling read 96 drives as 192 on a host twice as fast.
	for _, cal := range []float64{10e6, 40e6} {
		if regs := Regressions(Compare(base, run(cal, 96, 500), 0.15)); len(regs) != 0 {
			t.Fatalf("cal %v: unchanged count or host-scaled time flagged: %v", cal, regs)
		}
	}
	// On a host half as fast, the old rescaling read 192 drives as 96.
	regs := Regressions(Compare(base, run(40e6, 192, 500), 0.15))
	if len(regs) != 1 || regs[0].Metric != "drives" || regs[0].Cur != 192 {
		t.Fatalf("doubled count not flagged unscaled: %v", regs)
	}
}

func TestCompareAllocSlackAndLeak(t *testing.T) {
	base := baseRun()
	cur := baseRun()
	cur.Results[1].AllocsPerOp = allocSlack // jitter: tolerated
	if regs := Regressions(Compare(base, cur, 0.15)); len(regs) != 0 {
		t.Fatalf("alloc jitter flagged: %v", regs)
	}
	cur.Results[1].AllocsPerOp = allocSlack + 1 // leak: flagged
	regs := Regressions(Compare(base, cur, 0.15))
	if len(regs) != 1 || regs[0].Metric != "allocs_per_op" {
		t.Fatalf("alloc leak not flagged: %v", regs)
	}
}

func TestCompareMissingBenchmark(t *testing.T) {
	base := baseRun()
	cur := baseRun()
	cur.Results = cur.Results[:1]
	regs := Regressions(Compare(base, cur, 0.15))
	if len(regs) != 1 || regs[0].Metric != "missing" || regs[0].Name != "queue/pooled" {
		t.Fatalf("missing benchmark not flagged: %v", regs)
	}
}

func TestCompareIgnoresNewBenchmarks(t *testing.T) {
	base := baseRun()
	cur := baseRun()
	cur.Results = append(cur.Results, Result{Name: "brand/new", NsPerOp: 1e9})
	if regs := Regressions(Compare(base, cur, 0.15)); len(regs) != 0 {
		t.Fatalf("new benchmark flagged: %v", regs)
	}
}

func TestRoundTripAndSchemaCheck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_test.json")
	base := baseRun()
	base.GoVersion = "go-test"
	base.PeakRSSBytes = 1 << 20
	if err := base.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != base.Date || got.GoVersion != "go-test" || got.PeakRSSBytes != 1<<20 {
		t.Fatalf("round trip lost header fields: %+v", got)
	}
	if r := got.Find("queue/pooled"); r == nil || r.NsPerOp != 180 {
		t.Fatalf("round trip lost results: %+v", got.Results)
	}
	if got.Find("nope") != nil {
		t.Fatal("Find invented a result")
	}

	bad := *base
	bad.Schema = "other/v9"
	path2 := filepath.Join(dir, "BENCH_bad.json")
	if err := bad.Write(path2); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path2); err == nil {
		t.Fatal("Load accepted a foreign schema")
	}
}
