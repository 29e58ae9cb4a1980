package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/trace"
)

// TestMain lets the test binary serve as the reference server, which
// scrubd-mixed starts from its own executable.
func TestMain(m *testing.M) {
	serveReferenceIfAsked()
	os.Exit(m.Run())
}

func TestQuantileExact(t *testing.T) {
	s := []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0.10, 1}, {0.50, 5}, {0.90, 9}, {0.99, 10}, {1, 10}, {0, 1},
	} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median(s); got != 5.5 {
		t.Errorf("median of 1..10 = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 1..3 = %v, want 2", got)
	}
	if s[0] != 7 {
		t.Error("quantile reordered its input")
	}
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %s, code runs %s", got, workloadNames())
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s %d: BENCHMARK.json %s %s, code %s %s", kind, i, listed[i].Name, listed[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// buildScrubd builds the daemon the scrubd-mixed workload drives.
func buildScrubd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "scrubd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/scrubd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build scrubd: %v\n%s", err, out)
	}
	return bin
}

// TestSmoke runs every workload untraced and traced at smoke scale. Each
// run must check out correct with no failed operation, which for the
// traced run includes the hand-assembled stacks reproducing the untraced
// digests bit for bit, and must emit every metric BENCHMARK.json names,
// with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	bin := buildScrubd(t, dir)
	bj := loadBenchmarkJSON(t)
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var stdout, stderr bytes.Buffer
			code := run([]string{
				"-workload", w.name, "-seed", "3", "-seconds", "1", "-trace", trace,
				"-smoke", "-root", dir, "-scrubd", bin,
			}, &stdout, &stderr)
			if code != 0 {
				t.Errorf("%s trace %s: exit %d\n%s", w.name, trace, code, stderr.String())
				continue
			}
			res, err := lastResult(stdout.Bytes())
			if err != nil {
				t.Fatalf("%s trace %s: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s",
					w.name, trace, res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			want := bj.EndToEnd
			if trace == "1" {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %s", w.name, trace, m.Name, got, m.Unit)
				}
				if trace == "0" && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestRunAllWritesBaselines checks the all-workloads mode end to end on
// the cheapest scale: both baselines and one profile per workload.
func TestRunAllWritesBaselines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	bin := buildScrubd(t, dir)
	self := filepath.Join(dir, "e2ebench")
	if out, err := exec.Command("go", "build", "-o", self, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	out := filepath.Join(dir, "results")
	cmd := exec.Command(self, "-workload", "all", "-seconds", "0.5", "-smoke", "-root", dir, "-scrubd", bin, "-out", out)
	if b, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("all: %v\n%s", err, b)
	}
	date := hostInfo(dir).Date
	for _, f := range []string{"BENCH_E2E_" + date + ".json", "LAYERS_" + date + ".json"} {
		b, err := os.ReadFile(filepath.Join(out, f))
		if err != nil {
			t.Fatal(err)
		}
		var bl baseline
		if err := json.Unmarshal(b, &bl); err != nil {
			t.Fatal(err)
		}
		if len(bl.Workloads) != len(workloads) || bl.Host.NumCPU == 0 || bl.Host.GOMAXPROCS == 0 {
			t.Errorf("%s: %d workloads, host %+v", f, len(bl.Workloads), bl.Host)
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(out, "profiles", w.name+".cpu.pprof")); err != nil {
			t.Error(err)
		}
	}
}

// TestReplaySpanWithinTraceSpan checks that replay-busy's uplift keeps
// every replay within 1.05 times its trace's span, and that the same
// trace without the uplift overloads the drive and fails the check.
func TestReplaySpanWithinTraceSpan(t *testing.T) {
	dir := t.TempDir()
	jobs, err := replayBusy.setupOnce(dir, 1, smokeScale)
	if err != nil {
		t.Fatalf("uplifted replay: %v", err)
	}
	if len(jobs) != smokeScale.replaySegs {
		t.Fatalf("%d jobs, want %d", len(jobs), smokeScale.replaySegs)
	}

	tpc, _ := trace.ByName("TPCdisk66")
	raw := tpc.Generate(1, smokeScale.replaySeg)
	rj := &replayJob{
		spec:      stackSpec{model: disk.HitachiUltrastar15K450(), policy: core.PolicyWaiting, threshold: 100 * time.Millisecond},
		records:   int64(len(raw.Records)),
		span:      raw.Records[len(raw.Records)-1].Arrival,
		spanLimit: 1.05,
		open: func() (trace.Source, error) {
			return trace.Limit(raw.Source(), int64(len(raw.Records))), nil
		},
	}
	if _, err := rj.run(nil); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("raw TPCdisk66 replay: err = %v, want a span overrun", err)
	}
}

// TestStallMakesQueuedRequestsLate stalls a stub server once for twice
// the lateness limit: the open loop's requests due behind the stall
// complete late and count as failed operations; nothing else fails.
func TestStallMakesQueuedRequestsLate(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 200 {
			time.Sleep(2 * lateAfter)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	counts := make([]int, 64)
	for i := range counts {
		counts[i] = 4
	}
	feeds := freshFeeds(1, counts)
	lg := newLoadGen(srv.URL, feeds, 1, 4)
	defer lg.close()
	st := lg.run(600*time.Millisecond, 2000, -1)
	if st.late == 0 {
		t.Fatalf("no late request after a 50 ms stall (%d requests)", st.requests)
	}
	if st.failed != st.late {
		t.Errorf("%d failed, %d late: only late requests should fail (first error %v)", st.failed, st.late, st.firstErr)
	}
}

func TestLayerShares(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Simulator).step": "sim",
		"repro/internal/disk.(*Disk).Service":  "disk",
		"repro/internal/stats.(*OnlineIdle).X": "stats",
		"repro/internal/idlesim.Run":           "other",
		"main.(*timedSched).Add":               "harness",
		"net/http.(*conn).serve":               "http",
		"runtime.mallocgc":                     "",
		"encoding/gob.(*Encoder).Encode":       "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%s) = %q, want %q", fn, got, want)
		}
	}

	// A second of replays gives the profile about a hundred samples.
	jobs, err := replayBusy.setupOnce(t.TempDir(), 2, smokeScale)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if _, err := measureProcess(path, func() {
		for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
			for _, j := range jobs {
				if _, err := j.run(nil); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}); err != nil {
		t.Fatal(err)
	}
	m := map[string]float64{}
	if err := addShares(path, m); err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, l := range shareLayers {
		total += m[l+".share"]
	}
	if len(m) == 0 || total < 0.999 || total > 1.001 {
		t.Errorf("shares %v sum to %v, want 1", m, total)
	}
	if m["disk.share"] == 0 {
		t.Errorf("a replay spent no profiled time in the disk model: %v", m)
	}
}

func TestHostInfo(t *testing.T) {
	h := hostInfo("..")
	if h.NumCPU < 1 || h.GOMAXPROCS < 1 || h.GOARCH == "" || h.GoVersion == "" || h.Commit == "" {
		t.Errorf("incomplete host record %+v", h)
	}
	if _, err := time.Parse("2006-01-02", h.Date); err != nil {
		t.Error(err)
	}
}

func TestDevFeedDeterministic(t *testing.T) {
	a, b := newDevFeed(7, 3), newDevFeed(7, 3)
	other := newDevFeed(7, 4)
	var prev int64
	for i := 0; i < 100; i++ {
		x, y := a.next(), b.next()
		if x != y {
			t.Fatalf("record %d: %d vs %d", i, x, y)
		}
		if x <= prev {
			t.Fatalf("record %d: arrival %d not after %d", i, x, prev)
		}
		prev = x
	}
	first := newDevFeed(7, 3)
	if other.next() == first.next() {
		t.Error("two devices share a feed")
	}
	if got := string(appendDevName(nil, 42)); got != "d0000042" {
		t.Errorf("device name %q", got)
	}
}
