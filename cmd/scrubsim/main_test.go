package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/trace"
)

func TestScrubsimWaiting(t *testing.T) {
	if err := run([]string{"-trace", "HPc3t3d0", "-dur", "2m", "-policy", "waiting", "-threshold", "200ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestScrubsimCFQIdle(t *testing.T) {
	if err := run([]string{"-trace", "HPc3t3d0", "-dur", "1m", "-policy", "cfq-idle", "-alg", "sequential"}); err != nil {
		t.Fatal(err)
	}
}

func TestScrubsimFixedDelay(t *testing.T) {
	if err := run([]string{"-trace", "TPCdisk66", "-dur", "10s", "-policy", "fixed-delay", "-delay", "32ms"}); err != nil {
		t.Fatal(err)
	}
}

func TestScrubsimMetricsFormats(t *testing.T) {
	for _, format := range obs.Formats {
		var buf bytes.Buffer
		err := runTo(&buf, []string{"-trace", "TPCdisk66", "-dur", "10s", "-metrics", format})
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		marker := "--- metrics (" + format + ") ---\n"
		if !strings.Contains(buf.String(), marker) {
			t.Fatalf("%s: output missing %q", format, marker)
		}
	}
}

func TestScrubsimTraceEvents(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"-trace", "TPCdisk66", "-dur", "10s", "-trace-events", "16"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "--- events (last 16 of ") {
		t.Fatalf("output missing event tail header:\n%s", out)
	}
	if !strings.Contains(out, "blockdev") {
		t.Fatal("event tail carries no blockdev events")
	}
}

// TestScrubsimMetricsMatchSimulation is the acceptance check for the
// metrics pipeline: the foreground-slowdown histogram in the -metrics
// snapshot must equal, bucket for bucket, a histogram built from the
// replay engine's own per-request queueing delays for the same seed.
func TestScrubsimMetricsMatchSimulation(t *testing.T) {
	args := []string{"-trace", "HPc3t3d0", "-dur", "2m", "-policy", "waiting",
		"-threshold", "200ms", "-seed", "7"}

	var buf bytes.Buffer
	if err := runTo(&buf, append(args, "-metrics", "json")); err != nil {
		t.Fatal(err)
	}
	_, raw, found := strings.Cut(buf.String(), "--- metrics (json) ---\n")
	if !found {
		t.Fatal("no metrics marker in output")
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(raw), &snap); err != nil {
		t.Fatalf("snapshot unmarshal: %v", err)
	}
	var got *obs.HistSnap
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "core.fg.slowdown" {
			got = &snap.Histograms[i]
		}
	}
	if got == nil {
		t.Fatal("snapshot has no core.fg.slowdown histogram")
	}

	// Re-run the identical simulation through the library and aggregate
	// the engine's own per-request waits.
	spec, ok := trace.ByName("HPc3t3d0")
	if !ok {
		t.Fatal("trace HPc3t3d0 missing from catalog")
	}
	tr := spec.Generate(7, 2*time.Minute)
	sys, err := core.New(nil, core.WithPolicy(core.PolicyWaiting), core.WithWaitThreshold(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	res, err := (&replay.Replayer{}).RunSource(sys.Sim, sys.Queue, tr.Source(), tr.DiskSectors)
	if err != nil {
		t.Fatal(err)
	}
	wantReg := obs.New()
	want := wantReg.Histogram("core.fg.slowdown")
	for _, sec := range res.Waits {
		want.Observe(time.Duration(sec * float64(time.Second)))
	}

	wantSnap := wantReg.Snapshot().Histograms[0]
	if got.Count != wantSnap.Count {
		t.Fatalf("slowdown count: snapshot %d, engine %d", got.Count, wantSnap.Count)
	}
	for i, b := range got.Buckets {
		if b != wantSnap.Buckets[i] {
			t.Errorf("bucket %d: snapshot %+v, engine %+v", i, b, wantSnap.Buckets[i])
		}
	}
	// Sums may differ by float64 round-tripping of each wait (<= 1ns per
	// observation each way).
	if diff := got.SumNanos - wantSnap.SumNanos; diff > got.Count || diff < -got.Count {
		t.Errorf("slowdown sum: snapshot %d ns, engine %d ns", got.SumNanos, wantSnap.SumNanos)
	}
}

// TestScrubsimFaultDemo is the acceptance check for the fault-injection
// campaign: on the demo disk, the Waiting policy must detect at least
// 95% of the LSEs a bursty arrival stream plants over 30 minutes, and
// the run must report the full lifecycle — injected/detected/remapped
// counts plus the time-to-detection histogram in the -metrics snapshot.
func TestScrubsimFaultDemo(t *testing.T) {
	var buf bytes.Buffer
	err := runTo(&buf, []string{
		"-disk", "demo", "-faults", "bursty", "-trace", "HPc3t3d0",
		"-dur", "30m", "-policy", "waiting", "-threshold", "100ms",
		"-metrics", "json",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{"faults injected:", "faults detected:", "faults remapped:", "mean detect time:"} {
		if !strings.Contains(out, line) {
			t.Fatalf("report missing %q:\n%s", line, out)
		}
	}

	_, raw, found := strings.Cut(out, "--- metrics (json) ---\n")
	if !found {
		t.Fatal("no metrics marker in output")
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(raw), &snap); err != nil {
		t.Fatalf("snapshot unmarshal: %v", err)
	}
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	injected, detected := counters["fault.injected"], counters["fault.detected"]
	if injected == 0 {
		t.Fatal("no faults injected")
	}
	if ratio := float64(detected) / float64(injected); ratio < 0.95 {
		t.Fatalf("detection ratio %.3f (%d/%d), want >= 0.95", ratio, detected, injected)
	}
	if counters["fault.remapped"] == 0 {
		t.Fatal("auto-repair remapped nothing")
	}
	var ttd *obs.HistSnap
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "fault.time_to_detection" {
			ttd = &snap.Histograms[i]
		}
	}
	if ttd == nil || ttd.Count == 0 {
		t.Fatalf("snapshot missing a populated fault.time_to_detection histogram")
	}
	if ttd.Count != detected {
		t.Fatalf("TTD histogram count %d != detected counter %d", ttd.Count, detected)
	}
}

func TestScrubsimFaultBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-faults", "bogus", "-dur", "1s"},
		{"-disk", "nosuchdrive", "-dur", "1s"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestParseDisk(t *testing.T) {
	if m, err := disk.FindModel(""); err != nil || m.DeviceName() != disk.HitachiUltrastar15K450().Name {
		t.Fatalf("default disk = %v, %v", m, err)
	}
	if m, err := disk.FindModel("demo"); err != nil || m.DeviceSectors() != disk.DemoSmall().DeviceSectors() {
		t.Fatalf("demo disk = %v, %v", m, err)
	}
	if m, err := disk.FindModel("ultrastar"); err != nil || !strings.Contains(strings.ToLower(m.DeviceName()), "ultrastar") {
		t.Fatalf("substring match = %v, %v", m, err)
	}
	if m, err := disk.FindModel("demo-ssd"); err != nil || m.DeviceName() != disk.DemoSSD().Name {
		t.Fatalf("demo-ssd = %v, %v", m, err)
	}
}

func TestParseSchedAll(t *testing.T) {
	for _, name := range []string{"", "cfq", "deadline", "noop", "bsa", "bsa-repair"} {
		if s, err := iosched.New(name); err != nil || s == nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
	if _, err := iosched.New("anticipatory"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

// TestScrubsimSSD drives the flash device model end to end from flags:
// the run must finish and report scrub progress like a disk run would.
func TestScrubsimSSD(t *testing.T) {
	var buf bytes.Buffer
	if err := runTo(&buf, []string{"-disk", "demo-ssd", "-sched", "bsa",
		"-trace", "TPCdisk66", "-dur", "30s", "-policy", "waiting", "-alg", "sequential"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "scrub throughput:") {
		t.Fatalf("SSD run produced no scrub report:\n%s", buf.String())
	}
}

func TestScrubsimBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-policy", "bogus"},
		{"-alg", "bogus", "-dur", "1s"},
		{"-trace", "ghost"},
		{"-file", "/no/such/file"},
		{"-metrics", "xml"},
		{"-trace-events", "-4"},
		{"-sched", "anticipatory", "-dur", "1s"},
		{"-zzz"},
	} {
		if err := run(args); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestParsePolicyAll(t *testing.T) {
	for _, name := range []string{"cfq-idle", "fixed-delay", "waiting", "ar", "ar+waiting"} {
		if _, err := core.ParsePolicy(name); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	_ = time.Second
}
