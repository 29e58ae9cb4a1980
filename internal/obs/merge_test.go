package obs

import (
	"strings"
	"testing"
	"time"
)

// regWith builds a registry with one counter, one gauge and one
// histogram holding the given observations.
func regWith(counter int64, gauge, gaugeMax int64, obsv ...time.Duration) *Registry {
	r := New()
	r.Counter("c").Add(counter)
	g := r.Gauge("g")
	g.Set(gaugeMax)
	g.Set(gauge)
	h := r.Histogram("h")
	for _, d := range obsv {
		h.Observe(d)
	}
	return r
}

// mergeInto folds src's snapshot into dst: the merge fleets and scrubd
// checkpoints run.
func mergeInto(dst, src *Registry) error { return dst.MergeSnapshot(src.Snapshot()) }

func TestCounterMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("c").Add(3)
	b.Counter("c").Add(4)
	if err := mergeInto(a, b); err != nil {
		t.Fatal(err)
	}
	if v := a.Counter("c").Value(); v != 7 {
		t.Errorf("merged counter = %d, want 7", v)
	}
	if err := mergeInto(a, New()); err != nil {
		t.Fatal(err)
	}
	if v := a.Counter("c").Value(); v != 7 {
		t.Errorf("empty merge changed counter to %d", v)
	}
}

func TestGaugeMerge(t *testing.T) {
	a, b := New(), New()
	a.Gauge("g").Set(10)
	a.Gauge("g").Set(2)
	b.Gauge("g").Set(5)
	b.Gauge("g").Set(3)
	if err := mergeInto(a, b); err != nil {
		t.Fatal(err)
	}
	g := a.Gauge("g")
	if g.Value() != 5 {
		t.Errorf("merged gauge value = %d, want 5 (2+3)", g.Value())
	}
	if g.w[1] != 10 {
		t.Errorf("merged gauge max = %d, want 10", g.w[1])
	}
	// A gauge that was never set contributes nothing.
	unseen := New()
	unseen.Gauge("g")
	if err := mergeInto(a, unseen); err != nil {
		t.Fatal(err)
	}
	if g.Value() != 5 || g.w[1] != 10 {
		t.Errorf("unseen merge changed gauge to (%d, %d)", g.Value(), g.w[1])
	}
	// Merging into a fresh registry adopts the source.
	c := New()
	if err := mergeInto(c, b); err != nil {
		t.Fatal(err)
	}
	if g := c.Gauge("g"); g.Value() != 3 || g.w[1] != 5 {
		t.Errorf("merge into fresh gauge = (%d, %d), want (3, 5)", g.Value(), g.w[1])
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := New(), New()
	a.Histogram("h").Observe(time.Millisecond)
	a.Histogram("h").Observe(10 * time.Millisecond)
	b.Histogram("h").Observe(100 * time.Millisecond)
	if err := mergeInto(a, b); err != nil {
		t.Fatal(err)
	}
	h := a.Histogram("h")
	if h.w[0] != 3 {
		t.Errorf("merged count = %d, want 3", h.w[0])
	}
	if h.Sum() != 111*time.Millisecond {
		t.Errorf("merged sum = %v, want 111ms", h.Sum())
	}
	// Merging an empty histogram is a no-op, including min/max.
	before := histSnapOf(h, "h")
	empty := New()
	empty.Histogram("h")
	if err := mergeInto(a, empty); err != nil {
		t.Fatal(err)
	}
	if after := histSnapOf(h, "h"); snapJSON(t, after) != snapJSON(t, before) {
		t.Errorf("empty merge changed histogram:\nbefore: %s\nafter:  %s", snapJSON(t, before), snapJSON(t, after))
	}
}

func TestHistogramMergeBoundsMismatch(t *testing.T) {
	a := New()
	a.HistogramBuckets("h", []time.Duration{time.Millisecond, time.Second})
	b := New()
	b.HistogramBuckets("h", []time.Duration{time.Millisecond})
	if err := mergeInto(a, b); err == nil {
		t.Error("bound-count mismatch accepted")
	}
	c := New()
	c.HistogramBuckets("h", []time.Duration{time.Microsecond, time.Second})
	if err := mergeInto(a, c); err == nil {
		t.Error("bound-value mismatch accepted")
	}
}

// histSnapOf copies one histogram's current state under the given name.
func histSnapOf(h *Histogram, name string) HistSnap {
	return histSnap(name, h.bounds, h.w)
}

func snapJSON(t *testing.T, v any) string {
	t.Helper()
	var sb strings.Builder
	s := Snapshot{}
	switch x := v.(type) {
	case Snapshot:
		s = x
	case HistSnap:
		s = Snapshot{Histograms: []HistSnap{x}}
	default:
		t.Fatalf("snapJSON: unsupported %T", v)
	}
	if err := s.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestMergeSnapshotsCommutesAndAssociates is the algebra the sharded
// fleet reduction rests on: any grouping and any order of per-shard
// snapshots produces byte-identical fleet views.
func TestMergeSnapshotsCommutesAndAssociates(t *testing.T) {
	s1 := regWith(1, 2, 9, time.Millisecond, 40*time.Millisecond).Snapshot()
	s2 := regWith(10, 3, 4, 2*time.Millisecond).Snapshot()
	s3 := regWith(100, 1, 1, time.Second, 3*time.Second, 90*time.Millisecond).Snapshot()

	ab, err := MergeSnapshots(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	abc1, err := MergeSnapshots(ab, s3)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := MergeSnapshots(s2, s3)
	if err != nil {
		t.Fatal(err)
	}
	abc2, err := MergeSnapshots(s1, bc)
	if err != nil {
		t.Fatal(err)
	}
	abc3, err := MergeSnapshots(s3, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := snapJSON(t, abc1), snapJSON(t, abc2); a != b {
		t.Errorf("merge not associative:\n(12)3: %s\n1(23): %s", a, b)
	}
	if a, b := snapJSON(t, abc1), snapJSON(t, abc3); a != b {
		t.Errorf("merge not commutative:\n123: %s\n312: %s", a, b)
	}

	// Spot-check the totals.
	if abc1.Counters[0].Value != 111 {
		t.Errorf("merged counter = %d, want 111", abc1.Counters[0].Value)
	}
	if abc1.Gauges[0].Value != 6 || abc1.Gauges[0].Max != 9 {
		t.Errorf("merged gauge = %+v, want value 6 max 9", abc1.Gauges[0])
	}
	if abc1.Histograms[0].Count != 6 {
		t.Errorf("merged histogram count = %d, want 6", abc1.Histograms[0].Count)
	}
	if abc1.Histograms[0].MinNanos != int64(time.Millisecond) {
		t.Errorf("merged histogram min = %d, want 1ms", abc1.Histograms[0].MinNanos)
	}
	if abc1.Histograms[0].MaxNanos != int64(3*time.Second) {
		t.Errorf("merged histogram max = %d, want 3s", abc1.Histograms[0].MaxNanos)
	}
}

// TestMergeSnapshotRoundTrip pins the park/hydrate identity: merging a
// snapshot into a fresh registry then snapshotting again is byte-exact,
// and instruments keep accumulating correctly afterwards.
func TestMergeSnapshotRoundTrip(t *testing.T) {
	orig := regWith(5, 7, 12, time.Millisecond, time.Second)
	snap := orig.Snapshot()
	fresh := New()
	if err := fresh.MergeSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if a, b := snapJSON(t, fresh.Snapshot()), snapJSON(t, snap); a != b {
		t.Errorf("round trip not identity:\norig:  %s\nfresh: %s", b, a)
	}
	// A post-restore Set below the restored max keeps the max.
	fresh.Gauge("g").Set(3)
	if got := fresh.Gauge("g").w[1]; got != 12 {
		t.Errorf("restored gauge max after lower Set = %d, want 12", got)
	}
	orig.Gauge("g").Set(3)
	if a, b := snapJSON(t, fresh.Snapshot()), snapJSON(t, orig.Snapshot()); a != b {
		t.Errorf("restored and live registries diverged after identical ops:\nlive:     %s\nrestored: %s", b, a)
	}
}

func TestMergeSnapshotRejectsMalformed(t *testing.T) {
	cases := map[string]HistSnap{
		"no buckets": {Name: "h"},
		"missing overflow": {Name: "h", Buckets: []HistBucket{
			{LeNanos: 1000, Count: 0},
		}},
		"overflow not last": {Name: "h", Buckets: []HistBucket{
			{LeNanos: -1, Count: 0}, {LeNanos: -1, Count: 0},
		}},
		"bounds not ascending": {Name: "h", Buckets: []HistBucket{
			{LeNanos: 2000, Count: 0}, {LeNanos: 1000, Count: 0}, {LeNanos: -1, Count: 0},
		}},
	}
	for name, hs := range cases {
		if err := New().MergeSnapshot(Snapshot{Histograms: []HistSnap{hs}}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Mismatched bounds against an existing instrument.
	r := New()
	r.HistogramBuckets("h", []time.Duration{time.Millisecond})
	err := r.MergeSnapshot(Snapshot{Histograms: []HistSnap{{
		Name: "h",
		Buckets: []HistBucket{
			{LeNanos: int64(time.Second), Count: 0},
			{LeNanos: -1, Count: 0},
		},
	}}})
	if err == nil {
		t.Error("bound mismatch against existing histogram accepted")
	}
	// Bucket-count mismatch against an existing instrument.
	err = r.MergeSnapshot(Snapshot{Histograms: []HistSnap{{
		Name: "h",
		Buckets: []HistBucket{
			{LeNanos: int64(time.Millisecond), Count: 0},
			{LeNanos: int64(time.Second), Count: 0},
			{LeNanos: -1, Count: 0},
		},
	}}})
	if err == nil {
		t.Error("bucket-count mismatch against existing histogram accepted")
	}
	if err := (*Registry)(nil).MergeSnapshot(Snapshot{}); err == nil {
		t.Error("nil registry accepted")
	}
}
