package scrubd_test

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scrubd"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with go test -run %s -update): %v", t.Name(), err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (if the change is intended, rerun with -update):\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// newTestServer stands up an engine behind the full HTTP surface.
func newTestServer(t *testing.T, cfg scrubd.Config, scfg scrubd.ServerConfig) (*scrubd.Engine, *httptest.Server) {
	t.Helper()
	eng := scrubd.NewEngine(cfg)
	ts := httptest.NewServer(scrubd.NewServer(eng, scfg).Handler())
	t.Cleanup(func() {
		ts.Close()
		eng.Close()
	})
	return eng, ts
}

// goldenFeed is the fixed fixture feed: sda with four gaps
// (100/200/100/200 ms), sdb with one 50 ms gap. Everything the golden
// tests observe is integer-exact, so the files are byte-stable across
// hosts.
const goldenFeed = `{"records":[
  {"dev":"sda","at_us":1,"bytes":4096},
  {"dev":"sda","at_us":100001,"bytes":4096},
  {"dev":"sda","at_us":300001,"bytes":8192},
  {"dev":"sda","at_us":400001,"bytes":4096},
  {"dev":"sda","at_us":600001,"bytes":4096},
  {"dev":"sdb","at_us":1,"bytes":512},
  {"dev":"sdb","at_us":50001,"bytes":512}
]}`

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestServiceGolden drives the black-box request sequence — feed,
// sync, three decisions, metrics scrape — and pins the decision JSON
// and the Prometheus exposition byte-for-byte.
func TestServiceGolden(t *testing.T) {
	_, ts := newTestServer(t, scrubd.Config{Shards: 2}, scrubd.ServerConfig{})

	if code, body := post(t, ts.URL+"/v1/feed", goldenFeed); code != 200 || body != "{\"accepted\":7}\n" {
		t.Fatalf("feed: %d %q", code, body)
	}
	if code, _ := post(t, ts.URL+"/v1/sync", ""); code != 204 {
		t.Fatalf("sync: %d", code)
	}

	var sb strings.Builder
	for _, q := range []string{
		"dev=sda&now_us=700001",  // idle 100ms < 500ms threshold: hold (warming)
		"dev=sda&now_us=1200001", // idle 600ms >= threshold: fire
		"dev=sdb",                // now defaults to last arrival: idle 0
	} {
		code, body := get(t, ts.URL+"/v1/decide?"+q)
		if code != 200 {
			t.Fatalf("decide %s: status %d: %s", q, code, body)
		}
		sb.WriteString("### GET /v1/decide?" + q + "\n")
		sb.WriteString(body)
	}
	checkGolden(t, "decide.json.golden", sb.String())

	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: status %d", code)
	}
	checkGolden(t, "metrics.prom.golden", body)
}

// TestServiceErrors pins the typed 4xx surface end to end.
func TestServiceErrors(t *testing.T) {
	_, ts := newTestServer(t, scrubd.Config{Shards: 1}, scrubd.ServerConfig{MaxBodyBytes: 256})

	cases := []struct {
		name, method, path, body string
		wantCode                 int
		wantKind                 string
	}{
		{"malformed feed", "POST", "/v1/feed", `{"records":[{]}`, 400, "malformed_json"},
		{"truncated feed", "POST", "/v1/feed", `{"records":[`, 400, "truncated"},
		{"bad device", "POST", "/v1/feed", `{"records":[{"dev":"a b","at_us":1}]}`, 400, "bad_device"},
		{"overflow ts", "POST", "/v1/feed", `{"records":[{"dev":"a","at_us":99999999999999999999}]}`, 400, "bad_number"},
		{"dup key", "POST", "/v1/feed", `{"records":[{"dev":"a","dev":"a","at_us":1}]}`, 400, "duplicate_key"},
		{"oversized body", "POST", "/v1/feed", `{"records":[` + strings.Repeat(`{"dev":"aaaaaaaa","at_us":1},`, 20) + `{"dev":"a","at_us":1}]}`, 413, "body_too_large"},
		{"feed wrong method", "GET", "/v1/feed", "", 405, "method_not_allowed"},
		{"decide missing dev", "GET", "/v1/decide", "", 400, "missing_dev"},
		{"decide bad now", "GET", "/v1/decide?dev=a&now_us=x", "", 400, "bad_number"},
		{"decide unknown dev", "GET", "/v1/decide?dev=ghost", "", 404, "unknown_device"},
		{"decide wrong method", "POST", "/v1/decide?dev=a", "", 405, "method_not_allowed"},
		{"sync wrong method", "GET", "/v1/sync", "", 405, "method_not_allowed"},
		{"checkpoint disabled", "POST", "/v1/checkpoint", "", 501, "checkpoint_disabled"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != c.wantCode {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, c.wantCode, b)
			}
			if c.wantKind != "" && !strings.Contains(string(b), `"error":"`+c.wantKind+`"`) {
				t.Fatalf("body %q missing kind %q", b, c.wantKind)
			}
		})
	}
}

// TestServiceHealthAndMetricsFormats covers the remaining surface.
func TestServiceHealthAndMetricsFormats(t *testing.T) {
	_, ts := newTestServer(t, scrubd.Config{Shards: 1}, scrubd.ServerConfig{})

	if code, body := get(t, ts.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	for _, f := range []string{"prom", "json", "csv"} {
		if code, body := get(t, ts.URL+"/metrics?format="+f); code != 200 || body == "" {
			t.Fatalf("metrics %s: %d", f, code)
		}
	}
	if code, _ := get(t, ts.URL+"/metrics?format=xml"); code != 400 {
		t.Fatalf("metrics xml: want 400")
	}
}

// TestServiceCheckpointEndpoint round-trips engine state through the
// checkpoint endpoint and RestoreFile.
func TestServiceCheckpointEndpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.ckpt")
	eng, ts := newTestServer(t, scrubd.Config{Shards: 2}, scrubd.ServerConfig{CheckpointPath: path})

	if code, _ := post(t, ts.URL+"/v1/feed", goldenFeed); code != 200 {
		t.Fatalf("feed: %d", code)
	}
	if code, _ := post(t, ts.URL+"/v1/sync", ""); code != 204 {
		t.Fatal("sync failed")
	}
	code, body := post(t, ts.URL+"/v1/checkpoint", "")
	if code != 200 || !strings.HasPrefix(body, `{"bytes":`) {
		t.Fatalf("checkpoint: %d %q", code, body)
	}

	restored, err := scrubd.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b scrubd.Decision
	if err := eng.Decide([]byte("sda"), 1200001, &a); err != nil {
		t.Fatal(err)
	}
	if err := restored.Decide([]byte("sda"), 1200001, &b); err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("restored decision differs: %+v vs %+v", a, b)
	}
}

// reusedHeaderWriter is a ResponseWriter that keeps one header map and
// discards the body, so an allocation count covers only the handler.
type reusedHeaderWriter struct {
	h      http.Header
	status int
}

func (w *reusedHeaderWriter) Header() http.Header         { return w.h }
func (w *reusedHeaderWriter) WriteHeader(status int)      { w.status = status }
func (w *reusedHeaderWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestDecideHandlerZeroAllocs pins the decide handler — parse, decide,
// encode, headers — at zero allocations per warm request; what a served
// request costs beyond it is net/http's own.
func TestDecideHandlerZeroAllocs(t *testing.T) {
	recs, last := genRecords(11, 2, 40)
	eng := scrubd.NewEngine(scrubd.Config{Shards: 2, MinGaps: 8, RefitEvery: 8})
	t.Cleanup(eng.Close)
	if _, err := eng.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}
	srv := scrubd.NewServer(eng, scrubd.ServerConfig{})
	r := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/decide?dev=d0000&now_us=%d", last[0]+100_000), nil)
	w := &reusedHeaderWriter{h: http.Header{}}
	scrubd.HandleDecide(srv, w, r)
	if w.status != http.StatusOK || w.h.Get("Content-Type") != "application/json; charset=utf-8" {
		t.Fatalf("decide answered %d with Content-Type %q", w.status, w.h.Get("Content-Type"))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		scrubd.HandleDecide(srv, w, r)
	})
	if allocs != 0 {
		t.Fatalf("warm decide handler allocates %.1f/request, want 0", allocs)
	}
}
