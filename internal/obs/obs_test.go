package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Set(3)
	if g.Value() != 3 || g.Max() != 7 {
		t.Fatalf("gauge = %d/%d, want 3/7", g.Value(), g.Max())
	}
	// Max must track a first negative value too.
	g2 := r.Gauge("g2")
	g2.Set(-4)
	if g2.Max() != -4 {
		t.Fatalf("gauge max = %d, want -4", g2.Max())
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil || r.Trace() != nil {
		t.Fatal("nil registry handed out live instruments")
	}
	// All nil-instrument operations must be safe no-ops.
	var c *Counter
	c.Inc()
	c.Add(3)
	var g *Gauge
	g.Set(9)
	var h *Histogram
	h.Observe(time.Second)
	var ring *Ring
	ring.Emit(0, "l", "k", 1, 2)
	if c.Value() != 0 || g.Value() != 0 || g.Max() != 0 || h.Count() != 0 ||
		h.Sum() != 0 || ring.Len() != 0 ||
		ring.Total() != 0 || ring.Capacity() != 0 || ring.Events() != nil {
		t.Fatal("nil instrument reported state")
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestHistogramBucketing(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond})
	h.Observe(time.Millisecond) // boundary: first bucket (le semantics)
	h.Observe(500 * time.Microsecond)
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Minute)  // overflow
	h.Observe(-time.Second) // clamps to zero, first bucket
	want := []int64{3, 1, 1}
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, h.counts[i], w, h.counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.min != 0 || h.max != time.Minute {
		t.Fatalf("min/max = %v/%v", h.min, h.max)
	}
}

// TestBucketIndexSkipsNegativeBounds pins Observe's start table where
// the bounds go below zero: no observation reaches a negative bound, so
// every entry starts past them rather than scanning them.
func TestBucketIndexSkipsNegativeBounds(t *testing.T) {
	ix := newBucketIndex([]time.Duration{-5, -1, 0, 1, 3, 1000})
	for k := range ix {
		var want int32
		switch {
		case k == 0:
			want = 2 // bound 0
		case k == 1:
			want = 3 // bound 1
		case k == 2:
			want = 4 // bound 3
		case k <= 10:
			want = 5 // bound 1000 >= 2^(k-1)
		default:
			want = 6 // overflow
		}
		if ix[k] != want {
			t.Errorf("start[%d] = %d, want %d", k, ix[k], want)
		}
	}
}

func TestDefaultLatencyBuckets(t *testing.T) {
	b := DefaultLatencyBuckets()
	if len(b) != 24 {
		t.Fatalf("len = %d, want 24", len(b))
	}
	if b[0] != time.Microsecond || b[len(b)-1] != 50*time.Second {
		t.Fatalf("range = [%v, %v]", b[0], b[len(b)-1])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %v <= %v", i, b[i], b[i-1])
		}
	}
}

func TestRingWraparound(t *testing.T) {
	ring := NewRing(3)
	for i := int64(0); i < 5; i++ {
		ring.Emit(time.Duration(i), "layer", "kind", i, i*2)
	}
	if ring.Len() != 3 || ring.Total() != 5 || ring.Capacity() != 3 {
		t.Fatalf("len/total/cap = %d/%d/%d", ring.Len(), ring.Total(), ring.Capacity())
	}
	evs := ring.Events()
	for i, want := range []int64{2, 3, 4} {
		if evs[i].A != want {
			t.Fatalf("event %d = %+v, want A=%d", i, evs[i], want)
		}
	}
	tail := ring.Tail(2)
	if len(tail) != 2 || tail[0].A != 3 || tail[1].A != 4 {
		t.Fatalf("tail = %+v", tail)
	}
	if ring.Tail(0) != nil || ring.Tail(-1) != nil {
		t.Fatal("non-positive tail returned events")
	}
	if got := ring.Tail(99); len(got) != 3 {
		t.Fatalf("oversized tail = %d events", len(got))
	}
	if s := evs[0].String(); !strings.Contains(s, "layer") || !strings.Contains(s, "kind") {
		t.Fatalf("event string %q", s)
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := New()
	r.Counter("z.last").Add(1)
	r.Counter("a.first").Add(2)
	r.Gauge("m.mid").Set(3)
	r.Histogram("b.hist").Observe(time.Millisecond)
	snap := r.Snapshot()
	if snap.Counters[0].Name != "a.first" || snap.Counters[1].Name != "z.last" {
		t.Fatalf("counters not sorted: %+v", snap.Counters)
	}
	var one, two bytes.Buffer
	if err := snap.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := r.Snapshot().WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if one.String() != two.String() {
		t.Fatal("snapshots of unchanged registry differ")
	}
}

func TestWriteToDispatch(t *testing.T) {
	r := New()
	r.Counter("c").Inc()
	snap := r.Snapshot()
	for _, f := range Formats {
		var buf bytes.Buffer
		if err := snap.WriteTo(&buf, f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: empty output", f)
		}
	}
	if err := snap.WriteTo(&bytes.Buffer{}, "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestPrometheusCumulativeBuckets(t *testing.T) {
	r := New()
	h := r.HistogramBuckets("h", []time.Duration{time.Millisecond, time.Second})
	h.Observe(time.Microsecond)
	h.Observe(100 * time.Millisecond)
	h.Observe(time.Hour)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`repro_h_bucket{le="0.001"} 1`,
		`repro_h_bucket{le="1"} 2`,
		`repro_h_bucket{le="+Inf"} 3`,
		"repro_h_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// TestNilInstrumentsZeroAllocs proves the disabled path costs nothing:
// nil-instrument observations allocate zero bytes. The live path is also
// steady-state alloc-free (fixed arrays, preallocated ring).
func TestNilInstrumentsZeroAllocs(t *testing.T) {
	var (
		c *Counter
		g *Gauge
		h *Histogram
		r *Ring
	)
	nilAllocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(5)
		h.Observe(time.Millisecond)
		r.Emit(time.Second, "disk", "media", 42, 8)
	})
	if nilAllocs != 0 {
		t.Fatalf("nil instruments allocate %v per op", nilAllocs)
	}
	reg := New(WithTrace(64))
	lc, lg := reg.Counter("c"), reg.Gauge("g")
	lh, lr := reg.Histogram("h"), reg.Trace()
	liveAllocs := testing.AllocsPerRun(1000, func() {
		lc.Inc()
		lg.Set(5)
		lh.Observe(time.Millisecond)
		lr.Emit(time.Second, "disk", "media", 42, 8)
	})
	if liveAllocs != 0 {
		t.Fatalf("live instruments allocate %v per op in steady state", liveAllocs)
	}
}
