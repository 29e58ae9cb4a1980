package scrubbing_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/scrubbing"
)

// writeMSRFixture writes an MSR-Cambridge CSV (the Windows-export shape:
// BOM, CRLF, FILETIME ticks) with n records at a 50 ms cadence.
func writeMSRFixture(t *testing.T, n int) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("\xef\xbb\xbf")
	const base = 128166372000000000 // FILETIME ticks (100 ns)
	for i := 0; i < n; i++ {
		ticks := base + int64(i)*500000 // 50 ms
		op := "Read"
		if i%3 == 0 {
			op = "Write"
		}
		offset := int64(i%97) * 4096
		fmt.Fprintf(&b, "%d,src1,1,%s,%d,4096,500\r\n", ticks, op, offset)
	}
	path := filepath.Join(t.TempDir(), "fixture.csv")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFacadeTraceIngestion drives the ingestion surface through the
// facade alone: sniff and stream-parse a real-format file, compile it to
// the columnar cache, uplift it onto a modern device, tune from it, and
// replay it — without touching internal packages.
func TestFacadeTraceIngestion(t *testing.T) {
	path := writeMSRFixture(t, 240)
	src, err := scrubbing.OpenTrace(path, scrubbing.TraceFormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer scrubbing.CloseTraceSource(src)

	// Compile to the columnar cache: every parsed record must land there.
	cachePath := filepath.Join(t.TempDir(), "fixture.cache")
	n, err := scrubbing.BuildTraceCache(cachePath, src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 240 {
		t.Fatalf("cached %d records, want 240", n)
	}
	cached, err := scrubbing.OpenTrace(cachePath, scrubbing.TraceFormatAuto)
	if err != nil {
		t.Fatal(err)
	}
	defer scrubbing.CloseTraceSource(cached)

	// Uplift onto a modern 4 TB profile: the rescaled stream keeps every
	// record.
	up, err := scrubbing.UpliftTrace(cached, scrubbing.TraceUpliftOptions{Profile: scrubbing.ProfileHDD4T})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := scrubbing.BuildTraceCache(filepath.Join(t.TempDir(), "uplift.cache"), up); err != nil || n != 240 {
		t.Fatalf("uplift streamed %d records (%v), want 240", n, err)
	}
	if up.DiskSectors() != scrubbing.ProfileHDD4T.Sectors {
		t.Fatalf("uplifted address space %d, want %d", up.DiskSectors(), scrubbing.ProfileHDD4T.Sectors)
	}

	// Tune from the streaming file source; NewTuned over the same source
	// must reach the same choice.
	goal := scrubbing.Goal{MeanSlowdown: 2 * time.Millisecond}
	if err := cached.Reset(); err != nil {
		t.Fatal(err)
	}
	choice, err := scrubbing.AutoTune(context.Background(), cached, scrubbing.Ultrastar15K450(), goal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if choice.ReqSectors <= 0 || choice.Threshold <= 0 {
		t.Fatalf("bad tuned choice %+v", choice)
	}
	if err := cached.Reset(); err != nil {
		t.Fatal(err)
	}
	sys, c2, err := scrubbing.NewTuned(cached, scrubbing.Ultrastar15K450(), goal, scrubbing.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if c2.ReqSectors != choice.ReqSectors || c2.Threshold != choice.Threshold {
		t.Fatalf("NewTuned chose %+v, AutoTune %+v", c2, choice)
	}

	// Replay the cache through the tuned system while its scrubber runs.
	if err := cached.Reset(); err != nil {
		t.Fatal(err)
	}
	sys.Start()
	res, err := (&scrubbing.Replayer{}).RunSource(sys.Sim, sys.Queue, cached, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 240 {
		t.Fatalf("replayed %d requests, want 240", res.Requests)
	}
	if res.MeanResponse() <= 0 {
		t.Fatalf("replay produced no response times: %+v", res)
	}
}

// ExampleReplayer shows the quickstart: open a real-format trace file,
// compile it to the columnar cache once, and replay it through a
// scrubbing system — all through the facade.
func ExampleReplayer() {
	dir, err := os.MkdirTemp("", "scrubbing-quickstart")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)

	// An MSR-Cambridge CSV as exported on Windows (BOM + CRLF).
	tracePath := filepath.Join(dir, "workload.csv")
	var b strings.Builder
	b.WriteString("\xef\xbb\xbf")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "%d,src1,1,Read,%d,4096,500\r\n",
			128166372000000000+int64(i)*500000, int64(i%13)*8192)
	}
	if err := os.WriteFile(tracePath, []byte(b.String()), 0o644); err != nil {
		fmt.Println(err)
		return
	}

	// Sniff + stream-parse, then compile to the columnar cache.
	src, err := scrubbing.OpenTrace(tracePath, scrubbing.TraceFormatAuto)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer scrubbing.CloseTraceSource(src)
	cachePath := filepath.Join(dir, "workload.cache")
	n, err := scrubbing.BuildTraceCache(cachePath, src)
	if err != nil {
		fmt.Println(err)
		return
	}

	// Replay the cache through a default system with its scrubber on.
	cached, err := scrubbing.OpenTrace(cachePath, scrubbing.TraceFormatCache)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer scrubbing.CloseTraceSource(cached)
	sys, err := scrubbing.New(nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	sys.Start()
	res, err := (&scrubbing.Replayer{}).RunSource(sys.Sim, sys.Queue, cached, 0)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("cached %d records, replayed %d requests\n", n, res.Requests)
	// Output: cached 50 records, replayed 50 requests
}
