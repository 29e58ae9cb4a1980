package replay

// Battery for the trace.Source replay path: a slice source and a plain
// source over the same records must replay identically — same requests,
// same aggregate response/wait metrics, same span — and a plain source
// must hold constant memory while doing it.

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/scrub"
	"repro/internal/trace"
)

// streamOnly hides the concrete *trace.SliceSource type so RunSource
// keeps no per-request samples for in-memory records.
type streamOnly struct{ trace.Source }

func testTrace(t *testing.T, dur time.Duration) *trace.Trace {
	t.Helper()
	syn, ok := trace.ByName("TPCdisk66")
	if !ok {
		t.Fatal("TPCdisk66 missing from catalog")
	}
	tr := syn.Generate(3, dur)
	if len(tr.Records) < 100 {
		t.Fatalf("fixture trace too small: %d records", len(tr.Records))
	}
	return tr
}

// TestRunSourceSliceTakesBulkPath pins what a *trace.SliceSource keeps
// beyond the aggregates: one response and one wait per record, stored by
// request ID, and the source's own disk size when diskSectors is 0.
func TestRunSourceSliceTakesBulkPath(t *testing.T) {
	tr := testTrace(t, 2*time.Second)
	n := len(tr.Records)

	r1 := newRig(t)
	want, err := (&Replayer{}).RunSource(r1.sim, r1.q, tr.Source(), tr.DiskSectors)
	if err != nil {
		t.Fatal(err)
	}
	r2 := newRig(t)
	got, err := (&Replayer{}).RunSource(r2.sim, r2.q, tr.Source(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Responses) != n || len(got.Waits) != n {
		t.Fatalf("slice replay kept %d responses, %d waits for %d records",
			len(got.Responses), len(got.Waits), n)
	}
	maxResp := 0.0
	for _, v := range got.Responses {
		maxResp = max(maxResp, v)
	}
	if maxResp != got.RespMax {
		t.Fatalf("max(Responses) = %v, RespMax = %v", maxResp, got.RespMax)
	}
	if len(got.Responses) != len(want.Responses) {
		t.Fatalf("response counts differ: %d vs %d", len(got.Responses), len(want.Responses))
	}
	for i := range got.Responses {
		if got.Responses[i] != want.Responses[i] || got.Waits[i] != want.Waits[i] {
			t.Fatalf("request %d differs: resp %v vs %v, wait %v vs %v",
				i, got.Responses[i], want.Responses[i], got.Waits[i], want.Waits[i])
		}
	}
	if got.Span != want.Span || got.Requests != want.Requests {
		t.Fatalf("span/requests differ: %v/%d vs %v/%d", got.Span, got.Requests, want.Span, want.Requests)
	}
}

// TestRunSourceStreamMatchesBulk pins the one replay path from both
// sides: a *trace.SliceSource and the same records behind trace.Limit
// (a plain Source) give identical aggregate results at every look-ahead
// window. The HPc3t3d0 case runs an idle-class scrubber beside the
// replay, so foreground arrivals collide with in-flight scrub requests.
func TestRunSourceStreamMatchesBulk(t *testing.T) {
	hp, ok := trace.ByName("HPc3t3d0")
	if !ok {
		t.Fatal("HPc3t3d0 missing from catalog")
	}
	cases := []struct {
		name  string
		tr    *trace.Trace
		scrub bool
	}{
		{"TPCdisk66", testTrace(t, 2*time.Second), false},
		{"HPc3t3d0+idle-scrub", hp.Generate(3, time.Minute), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			replay := func(window int, src trace.Source) *Result {
				t.Helper()
				r := newRig(t)
				if c.scrub {
					r.scrubber(t, scrub.KernelMode, blockdev.ClassIdle, 0).Start()
				}
				res, err := (&Replayer{Window: window}).RunSource(r.sim, r.q, src, c.tr.DiskSectors)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			n := len(c.tr.Records)
			want := replay(0, c.tr.Source())
			if c.scrub && want.Collisions == 0 {
				t.Fatal("idle-class scrubber produced no collisions; fixture too idle")
			}
			for _, window := range []int{0, 1, 7, 100000} {
				slice := replay(window, c.tr.Source())
				stream := replay(window, trace.Limit(c.tr.Source(), int64(n)))
				if stream.Responses != nil || stream.Waits != nil {
					t.Fatal("non-slice source retained per-request samples")
				}
				if len(slice.Responses) != n {
					t.Fatalf("window %d: slice replay kept %d of %d responses", window, len(slice.Responses), n)
				}
				for _, got := range []*Result{slice, stream} {
					if got.Requests != want.Requests || got.Bytes != want.Bytes || got.Collisions != want.Collisions {
						t.Fatalf("window %d: counts differ: %+v vs %+v", window, got, want)
					}
					if got.Span != want.Span {
						t.Fatalf("window %d: span %v vs %v", window, got.Span, want.Span)
					}
					if got.RespTotal != want.RespTotal || got.RespMax != want.RespMax {
						t.Fatalf("window %d: responses differ: %v/%v vs %v/%v",
							window, got.RespTotal, got.RespMax, want.RespTotal, want.RespMax)
					}
					if got.WaitTotal != want.WaitTotal || got.WaitMax != want.WaitMax {
						t.Fatalf("window %d: waits differ: %v/%v vs %v/%v",
							window, got.WaitTotal, got.WaitMax, want.WaitTotal, want.WaitMax)
					}
					if got.MeanResponse() != want.MeanResponse() {
						t.Fatalf("window %d: mean response %v vs %v", window, got.MeanResponse(), want.MeanResponse())
					}
				}
			}
		})
	}
}

// TestRunSourceStreamDeterministicUnderScrubber pins reproducibility of
// the streaming path when a scrubber shares the queue.
func TestRunSourceStreamDeterministicUnderScrubber(t *testing.T) {
	// HPc3t3d0 leaves idle gaps the idle-class scrubber fills, so
	// foreground arrivals actually collide with in-flight scrub requests.
	syn, ok := trace.ByName("HPc3t3d0")
	if !ok {
		t.Fatal("HPc3t3d0 missing from catalog")
	}
	tr := syn.Generate(3, time.Minute)
	run := func() *Result {
		r := newRig(t)
		sc := r.scrubber(t, scrub.KernelMode, blockdev.ClassIdle, 0)
		sc.Start()
		res, err := (&Replayer{}).RunSource(r.sim, r.q, streamOnly{tr.Source()}, tr.DiskSectors)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	same := a.Requests == b.Requests && a.Bytes == b.Bytes && a.Collisions == b.Collisions &&
		a.Span == b.Span && a.RespTotal == b.RespTotal && a.RespMax == b.RespMax &&
		a.WaitTotal == b.WaitTotal && a.WaitMax == b.WaitMax
	if !same {
		t.Fatalf("scrubbed streaming replay not deterministic:\n%+v\n%+v", a, b)
	}
	if a.Collisions == 0 {
		t.Fatal("continuous scrubber produced no collisions; fixture too idle")
	}
}

func TestRunSourceErrorPropagates(t *testing.T) {
	r := newRig(t)
	src := &failingSource{after: 50}
	_, err := (&Replayer{}).RunSource(r.sim, r.q, src, 1<<20)
	if err == nil || !errors.Is(err, errSynthetic) {
		t.Fatalf("err = %v, want errSynthetic", err)
	}
}

var errSynthetic = errors.New("synthetic source failure")

type failingSource struct{ n, after int }

func (f *failingSource) Next(rec *trace.Record) error {
	if f.n >= f.after {
		return errSynthetic
	}
	f.n++
	rec.Arrival = time.Duration(f.n) * time.Millisecond
	rec.LBA, rec.Sectors = int64(f.n*8%100000), 8
	return nil
}
func (f *failingSource) Reset() error       { f.n = 0; return nil }
func (f *failingSource) DiskSectors() int64 { return 1 << 20 }
func (f *failingSource) Name() string       { return "failing" }

// TestRunSourceStreamSteadyStateAllocs pins the constant-memory claim at
// the allocator level: a warm streaming replay allocates a fixed handful
// of objects (Result header, drain bookkeeping), not per-record.
func TestRunSourceStreamSteadyStateAllocs(t *testing.T) {
	tr := testTrace(t, 2*time.Second)
	r := newRig(t)
	rp := &Replayer{}
	src := streamOnly{tr.Source()}
	if _, err := rp.RunSource(r.sim, r.q, src, tr.DiskSectors); err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		if _, err := rp.RunSource(r.sim, r.q, src, tr.DiskSectors); err != nil {
			t.Fatal(err)
		}
	})
	perRecord := allocs / float64(len(tr.Records))
	if perRecord > 0.01 {
		t.Fatalf("warm streaming replay allocates %.1f objects (%.4f/record) for %d records",
			allocs, perRecord, len(tr.Records))
	}
}

// metronomeSource streams count records at a fixed interarrival with
// LCG-scattered LBAs: an endless-trace stand-in whose rate the rig disk
// can sustain, so open-loop replay reaches steady state instead of
// growing a backlog.
type metronomeSource struct {
	n, count int64
	step     time.Duration
	lcg      uint64
	sectors  int64
}

func (m *metronomeSource) Next(rec *trace.Record) error {
	if m.n >= m.count {
		return io.EOF
	}
	m.lcg = m.lcg*6364136223846793005 + 1442695040888963407
	m.n++
	rec.Arrival = time.Duration(m.n) * m.step
	rec.Sectors = 8 << (m.lcg >> 62) // 8..64 sectors
	rec.LBA = int64(m.lcg%uint64(m.sectors-rec.Sectors)) &^ 7
	rec.Write = m.lcg&(1<<8) != 0
	return nil
}
func (m *metronomeSource) Reset() error       { m.n, m.lcg = 0, 0; return nil }
func (m *metronomeSource) DiskSectors() int64 { return m.sectors }
func (m *metronomeSource) Name() string       { return "metronome" }

// TestRunSourceStreamBoundedMemory replays a multi-million-record
// generator stream and asserts the heap stays bounded — the acceptance
// criterion behind replaying tens-of-GB traces. The full 10M-record run
// lives in scrubbench's trace suite; this keeps a 1.2M-record guard in
// the tier-1 tests.
func TestRunSourceStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-memory guard skipped in -short")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	r := newRig(t)
	rp := &Replayer{}
	src := &metronomeSource{count: 1_200_000, step: 8 * time.Millisecond, sectors: r.q.Disk().Sectors()}
	res, err := rp.RunSource(r.sim, r.q, src, src.sectors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests < 1_000_000 {
		t.Fatalf("fixture produced only %d records; want >= 1M", res.Requests)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	// The replayer window, request pool and sim heap together are a few
	// hundred KB; 64 MB of growth would mean the trace was materialized.
	const bound = 64 << 20
	if grew > bound {
		t.Fatalf("streaming replay of %d records grew heap by %d bytes (bound %d)",
			res.Requests, grew, bound)
	}
}
