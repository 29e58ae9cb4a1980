package obs

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestDuplicateBoundsRoundTrip: a histogram built with a repeated bound
// keeps one copy of it, so its snapshot merges into a fresh registry and
// snapshots back byte-identically.
func TestDuplicateBoundsRoundTrip(t *testing.T) {
	reg := New()
	h := reg.HistogramBuckets("x", []time.Duration{time.Millisecond, time.Millisecond, 2 * time.Millisecond})
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	if got := len(histSnapOf(h, "x").Buckets); got != 3 {
		t.Fatalf("%d buckets, want 3 (1ms, 2ms, overflow)", got)
	}
	fresh := New()
	if err := fresh.MergeSnapshot(reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a, b := snapJSON(t, fresh.Snapshot()), snapJSON(t, reg.Snapshot()); a != b {
		t.Errorf("round trip not identity:\norig:  %s\nfresh: %s", b, a)
	}
	// The layout carries the deduplicated bounds, so the snapshot also
	// converts back to a vector of it.
	if _, err := reg.Layout().Values(reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
}

// denseReg builds a registry with every instrument kind, in an order
// that is not name order, holding some state.
func denseReg() *Registry {
	r := New()
	r.Counter("z.count").Add(9)
	r.HistogramBuckets("a.hist", []time.Duration{time.Millisecond, time.Second}).Observe(5 * time.Millisecond)
	r.Gauge("m.gauge").Set(4)
	r.Counter("b.count").Inc()
	r.Histogram("y.hist")
	r.Gauge("c.gauge")
	return r
}

// sameShape builds denseReg's instruments with no state.
func sameShape() *Registry {
	r := New()
	r.Counter("z.count")
	r.HistogramBuckets("a.hist", []time.Duration{time.Millisecond, time.Second})
	r.Gauge("m.gauge")
	r.Counter("b.count")
	r.Histogram("y.hist")
	r.Gauge("c.gauge")
	return r
}

// TestDenseValuesRoundTrip: AppendValues then SetValues on a registry of
// the same layout reproduces the registry exactly, including a gauge's
// unseen state, and the layout's Snapshot of the vector equals the
// registry's own Snapshot.
func TestDenseValuesRoundTrip(t *testing.T) {
	src := denseReg()
	vals := src.AppendValues(nil)
	if len(vals) != src.Layout().Width() {
		t.Fatalf("%d values for width %d", len(vals), src.Layout().Width())
	}
	dst := sameShape()
	dst.Gauge("m.gauge").Set(100) // overwritten, max included
	if err := dst.SetValues(vals); err != nil {
		t.Fatal(err)
	}
	if a, b := snapJSON(t, dst.Snapshot()), snapJSON(t, src.Snapshot()); a != b {
		t.Errorf("SetValues(AppendValues) not identity:\nsrc: %s\ndst: %s", b, a)
	}
	snap, err := src.Layout().Snapshot(vals)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := snapJSON(t, snap), snapJSON(t, src.Snapshot()); a != b {
		t.Errorf("Layout.Snapshot differs from Registry.Snapshot:\nreg:    %s\nlayout: %s", b, a)
	}
	// An unseen gauge stays unseen: its first Set below zero becomes max.
	src.Gauge("c.gauge").Set(-2)
	dst.Gauge("c.gauge").Set(-2)
	if a, b := dst.Gauge("c.gauge").w[1], src.Gauge("c.gauge").w[1]; a != b {
		t.Errorf("restored unseen gauge max %d, live %d", a, b)
	}
	// Appending into a buffer of enough capacity does not allocate.
	buf := make([]int64, 0, len(vals))
	if allocs := testing.AllocsPerRun(100, func() { buf = src.AppendValues(buf[:0]) }); allocs != 0 {
		t.Errorf("AppendValues into a sized buffer: %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = dst.SetValues(vals) }); allocs != 0 {
		t.Errorf("SetValues: %.1f allocs, want 0", allocs)
	}
}

// TestDenseValuesRejectMismatch: a vector of the wrong width is an
// error everywhere, and layouts differing in kind, name, bounds or order
// compare unequal.
func TestDenseValuesRejectMismatch(t *testing.T) {
	r := denseReg()
	l := r.Layout()
	short := r.AppendValues(nil)[1:]
	if err := r.SetValues(short); err == nil || !strings.Contains(err.Error(), "width") {
		t.Errorf("SetValues of a short vector: err = %v", err)
	}
	if _, err := l.Snapshot(short); err == nil {
		t.Error("Layout.Snapshot of a short vector accepted")
	}
	if err := l.Merge(make([]int64, l.Width()), short); err == nil {
		t.Error("Layout.Merge of a short vector accepted")
	}
	if err := l.Merge(short, make([]int64, l.Width())); err == nil {
		t.Error("Layout.Merge into a short vector accepted")
	}
	if err := (*Registry)(nil).SetValues(nil); err == nil {
		t.Error("SetValues on a nil registry accepted")
	}
	if got := (*Registry)(nil).AppendValues(nil); got != nil {
		t.Errorf("nil registry appended %v", got)
	}
	if w := (*Registry)(nil).Layout().Width(); w != 0 {
		t.Errorf("nil registry layout width %d", w)
	}

	if !l.Equal(sameShape().Layout()) {
		t.Error("layouts of identically built registries differ")
	}
	variants := map[string]func(*Registry){
		"kind": func(r *Registry) { r.Gauge("extra") },
		"bounds": func(r *Registry) {
			r.HistogramBuckets("extra", []time.Duration{time.Second})
		},
	}
	for name, extend := range variants {
		a, b := sameShape(), sameShape()
		a.Counter("extra")
		extend(b)
		if a.Layout().Equal(b.Layout()) {
			t.Errorf("%s: layouts compare equal", name)
		}
	}
	a, b := sameShape(), sameShape()
	a.HistogramBuckets("extra", []time.Duration{time.Second})
	b.HistogramBuckets("extra", []time.Duration{2 * time.Second})
	if a.Layout().Equal(b.Layout()) {
		t.Error("histograms on different bounds compare equal")
	}
	a, b = sameShape(), sameShape()
	a.Counter("p")
	a.Counter("q")
	b.Counter("q")
	b.Counter("p")
	if a.Layout().Equal(b.Layout()) {
		t.Error("layouts in different creation order compare equal")
	}
}

// TestLayoutMergeMatchesMergeSnapshot: merging vectors with Layout.Merge
// gives the fleet view MergeSnapshots gives over the same registries.
func TestLayoutMergeMatchesMergeSnapshot(t *testing.T) {
	regs := []*Registry{denseReg(), sameShape(), denseReg()}
	regs[1].Gauge("m.gauge").Set(11)
	regs[1].Gauge("m.gauge").Set(1)
	regs[1].HistogramBuckets("a.hist", nil).Observe(time.Microsecond)
	regs[2].HistogramBuckets("a.hist", nil).Observe(2 * time.Second)
	l := regs[0].Layout()
	sum := make([]int64, l.Width())
	var snaps []Snapshot
	for _, r := range regs {
		if err := l.Merge(sum, r.AppendValues(nil)); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, r.Snapshot())
	}
	got, err := l.Snapshot(sum)
	if err != nil {
		t.Fatal(err)
	}
	want, err := MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := snapJSON(t, got), snapJSON(t, want); a != b {
		t.Errorf("Layout.Merge differs from MergeSnapshots:\nsnapshots: %s\nvectors:   %s", b, a)
	}
}

// TestLayoutValuesInvertsSnapshot: Values turns a snapshot back into
// the vector it came from, and refuses a snapshot of another schema.
func TestLayoutValuesInvertsSnapshot(t *testing.T) {
	r := denseReg()
	r.Gauge("c.gauge").Set(0) // Values restores gauges as seen
	l := r.Layout()
	vals, err := l.Values(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if a, b := vals, r.AppendValues(nil); len(a) != len(b) {
		t.Fatalf("Values width %d, want %d", len(a), len(b))
	} else {
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Values[%d] = %d, want %d", i, a[i], b[i])
			}
		}
	}

	mismatched := map[string]*Registry{}
	extra := sameShape()
	extra.Counter("extra")
	mismatched["extra instrument"] = extra
	for _, drop := range []string{"counter", "gauge", "histogram"} {
		m := New()
		if drop != "counter" {
			m.Counter("z.count")
			m.Counter("b.count")
		} else {
			m.Counter("z.count")
			m.Gauge("b.count")
		}
		m.HistogramBuckets("a.hist", []time.Duration{time.Millisecond, time.Second})
		if drop != "gauge" {
			m.Gauge("m.gauge")
			m.Gauge("c.gauge")
		} else {
			m.Gauge("m.gauge")
			m.Counter("c.gauge")
		}
		if drop != "histogram" {
			m.Histogram("y.hist")
		} else {
			m.Counter("y.hist")
		}
		mismatched["missing "+drop] = m
	}
	bounds := New()
	bounds.Counter("z.count")
	bounds.HistogramBuckets("a.hist", []time.Duration{time.Second})
	bounds.Gauge("m.gauge")
	bounds.Counter("b.count")
	bounds.Histogram("y.hist")
	bounds.Gauge("c.gauge")
	mismatched["histogram bounds"] = bounds
	for name, m := range mismatched {
		if _, err := l.Values(m.Snapshot()); err == nil {
			t.Errorf("%s: Values accepted a snapshot of another schema", name)
		}
	}
	malformed := r.Snapshot()
	malformed.Histograms[0].Buckets = nil
	if _, err := l.Values(malformed); err == nil {
		t.Error("Values accepted a malformed histogram snapshot")
	}
}

// fuzzOps applies one instrument operation per 9 bytes of raw to r: a
// selector byte (kind, one of 8 names, a shift) and a value. The fourth
// kind is a histogram on bounds of its own, often two to an octave.
func fuzzOps(r *Registry, raw []byte) {
	for ; len(raw) >= 9; raw = raw[9:] {
		name := fmt.Sprintf("i%d", raw[0]>>5)
		v := int64(binary.LittleEndian.Uint64(raw[1:9])) >> (raw[0] & 0x1C * 2)
		switch raw[0] % 4 {
		case 0:
			r.Counter(name).Add(v)
		case 1:
			r.Gauge(name).Set(v)
		case 2:
			r.Histogram(name).Observe(time.Duration(v))
		default:
			b := time.Duration(v&1023) << 10
			r.HistogramBuckets("b"+name, []time.Duration{b, b + b/2 + 1, time.Second}).Observe(time.Duration(v))
		}
	}
}

// touch writes once through every instrument handle of r's layout,
// taken before any later instrument exists.
func touch(r *Registry) []func() {
	var fns []func()
	for i, e := range r.layout.entries {
		v := int64(i + 1)
		switch e.kind {
		case kindCounter:
			c := r.Counter(e.name)
			fns = append(fns, func() { c.Add(v) })
		case kindGauge:
			g := r.Gauge(e.name)
			fns = append(fns, func() { g.Set(v) })
		default:
			h := r.HistogramBuckets(e.name, nil)
			fns = append(fns, func() { h.Observe(time.Duration(v) * time.Millisecond) })
		}
	}
	return fns
}

// FuzzSetValuesRoundTrip: for registries built by arbitrary operations,
// SetValues(AppendValues) into a registry of the same layout reproduces
// the registry, and the Layout's Snapshot of the vector equals the
// registry's own. Instruments added once values exist (one per 9 bytes
// of later), plainly or by MergeSnapshot as scrubd's checkpoint restore
// adds them, keep the earlier values in place, and handles taken before
// them still write into the registry however far the vector moved.
func FuzzSetValuesRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add(append(make([]byte, 9), 1, 2, 3, 4, 5, 6, 7, 8, 9), make([]byte, 90))
	f.Add([]byte{0x23, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x41, 1, 0, 0, 0, 0, 0, 0, 0}, make([]byte, 9*40))
	f.Add([]byte{0x23, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x42, 7, 0, 0, 0, 0, 0, 0, 0}, bytes.Repeat([]byte{3}, 9*64))
	f.Fuzz(func(t *testing.T, first, later []byte) {
		src := New()
		fuzzOps(src, first)
		vals := src.AppendValues(nil)
		dst := New()
		for _, e := range src.layout.entries {
			switch e.kind {
			case kindCounter:
				dst.Counter(e.name)
			case kindGauge:
				dst.Gauge(e.name)
			default:
				dst.HistogramBuckets(e.name, e.bounds)
			}
		}
		if err := dst.SetValues(vals); err != nil {
			t.Fatal(err)
		}
		if a, b := snapJSON(t, dst.Snapshot()), snapJSON(t, src.Snapshot()); a != b {
			t.Fatalf("SetValues(AppendValues) not identity:\nsrc: %s\ndst: %s", b, a)
		}
		snap, err := src.Layout().Snapshot(vals)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := snapJSON(t, snap), snapJSON(t, src.Snapshot()); a != b {
			t.Fatalf("Layout.Snapshot differs from Registry.Snapshot:\nreg:    %s\nlayout: %s", b, a)
		}

		// mirror gets the late instruments alone: its vector is what
		// the grown vector must hold past the earlier values.
		writes, mirror := touch(src), New()
		for i := 0; i < len(later)/9; i++ {
			name := fmt.Sprintf("late.%d", i)
			switch later[i*9] % 4 {
			case 0:
				src.Counter(name)
				mirror.Counter(name)
			case 1:
				src.Gauge(name)
				mirror.Gauge(name)
			case 2:
				src.Histogram(name)
				mirror.Histogram(name)
			default:
				one := New()
				one.Counter(name).Inc()
				if err := src.MergeSnapshot(one.Snapshot()); err != nil {
					t.Fatal(err)
				}
				mirror.Counter(name).Inc()
			}
		}
		grown := src.AppendValues(nil)
		if !slices.Equal(grown[:len(vals)], vals) || !slices.Equal(grown[len(vals):], mirror.AppendValues(nil)) {
			t.Fatalf("regrowth moved values:\nbefore: %v\nafter:  %v", vals, grown)
		}
		for _, w := range touch(dst) {
			w()
		}
		for _, w := range writes {
			w()
		}
		if got, want := src.AppendValues(nil)[:len(vals)], dst.AppendValues(nil); !slices.Equal(got, want) {
			t.Fatalf("handles taken before regrowth wrote elsewhere:\ngot:  %v\nwant: %v", got, want)
		}
	})
}
