package obs

import (
	"errors"
	"fmt"
	"time"
)

// A Registry is live instrumentation, not state: snapshots travel, the
// registry itself never does. These explicit refusals let gob compile
// struct types with a nil *Registry field (e.g. a config embedded in a
// fleet checkpoint) while erroring loudly if a live registry is ever
// encoded by mistake.

// GobEncode refuses serialization; snapshot the registry instead.
func (r *Registry) GobEncode() ([]byte, error) {
	return nil, errors.New("obs: a Registry is not serializable; use Snapshot")
}

// GobDecode refuses deserialization; merge a snapshot instead.
func (r *Registry) GobDecode([]byte) error {
	return errors.New("obs: a Registry is not serializable; use MergeSnapshot")
}

// Merge folds another counter's count into c. Merging is commutative and
// associative, so per-shard registries reduce to one fleet view in any
// order.
func (c *Counter) Merge(o *Counter) {
	if c == nil || o == nil {
		return
	}
	c.v += o.v
}

// Merge folds another gauge into g: last values add (a fleet-wide gauge
// like queue depth is the sum over members) and maxima take the max.
func (g *Gauge) Merge(o *Gauge) {
	if g == nil || o == nil || !o.seen {
		return
	}
	g.v += o.v
	if !g.seen || o.max > g.max {
		g.max = o.max
	}
	g.seen = true
}

// Merge folds another histogram's observations into h bucket by bucket.
// Both histograms must share bucket bounds — fleets guarantee this by
// construction (every member uses the same fixed bucket set), and a
// mismatch is reported rather than silently mis-binned.
func (h *Histogram) Merge(o *Histogram) error {
	if h == nil || o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("obs: histogram bucket mismatch: %d vs %d bounds", len(h.bounds), len(o.bounds))
	}
	for i, b := range h.bounds {
		if o.bounds[i] != b {
			return fmt.Errorf("obs: histogram bucket mismatch at %d: %v vs %v", i, b, o.bounds[i])
		}
	}
	if o.total == 0 {
		return nil
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.total == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.total += o.total
	h.sum += o.sum
	return nil
}

// MergeSnapshot folds a serialized snapshot into the registry, creating
// instruments on first sight. It is how a scrubd checkpoint's metrics
// are restored and how MergeSnapshots reduces snapshots to one view;
// fleet members park and hydrate as dense vectors instead (dense.go).
//
// One caveat keeps the round trip honest: a gauge restored this way has
// "seen" set, so a later Set of a value below the snapshot max correctly
// keeps the max. Gauge values in this codebase are non-negative, so the
// zero-snapshot case is indistinguishable from a fresh gauge.
func (r *Registry) MergeSnapshot(s Snapshot) error {
	if r == nil {
		return fmt.Errorf("obs: MergeSnapshot on a nil Registry")
	}
	for _, c := range s.Counters {
		r.Counter(c.Name).v += c.Value
	}
	for _, g := range s.Gauges {
		dst := r.Gauge(g.Name)
		dst.v += g.Value
		if !dst.seen || g.Max > dst.max {
			dst.max = g.Max
		}
		dst.seen = true
	}
	for _, hs := range s.Histograms {
		bounds, counts, err := bucketsOf(hs)
		if err != nil {
			return err
		}
		dst := r.HistogramBuckets(hs.Name, bounds)
		if len(dst.counts) != len(counts) {
			return fmt.Errorf("obs: histogram %q bucket mismatch: %d vs %d buckets", hs.Name, len(dst.counts), len(counts))
		}
		for i, b := range bounds {
			if dst.bounds[i] != b {
				return fmt.Errorf("obs: histogram %q bucket mismatch at %d: %v vs %v", hs.Name, i, dst.bounds[i], b)
			}
		}
		if hs.Count == 0 {
			continue
		}
		for i, c := range counts {
			dst.counts[i] += c
		}
		if dst.total == 0 || time.Duration(hs.MinNanos) < dst.min {
			dst.min = time.Duration(hs.MinNanos)
		}
		if time.Duration(hs.MaxNanos) > dst.max {
			dst.max = time.Duration(hs.MaxNanos)
		}
		dst.total += hs.Count
		dst.sum += time.Duration(hs.SumNanos)
	}
	return nil
}

// bucketsOf splits a histogram snapshot into bounds and counts,
// validating the shape (ascending bounds, exactly one trailing overflow
// bucket).
func bucketsOf(hs HistSnap) ([]time.Duration, []int64, error) {
	if len(hs.Buckets) < 1 {
		return nil, nil, fmt.Errorf("obs: histogram %q snapshot has no buckets", hs.Name)
	}
	n := len(hs.Buckets) - 1
	bounds := make([]time.Duration, n)
	counts := make([]int64, n+1)
	for i, b := range hs.Buckets {
		if i == n {
			if b.LeNanos != -1 {
				return nil, nil, fmt.Errorf("obs: histogram %q snapshot missing overflow bucket", hs.Name)
			}
			counts[i] = b.Count
			break
		}
		if b.LeNanos < 0 {
			return nil, nil, fmt.Errorf("obs: histogram %q snapshot has overflow bucket at %d", hs.Name, i)
		}
		if i > 0 && b.LeNanos <= int64(bounds[i-1]) {
			return nil, nil, fmt.Errorf("obs: histogram %q snapshot bounds not ascending at %d", hs.Name, i)
		}
		bounds[i] = time.Duration(b.LeNanos)
		counts[i] = b.Count
	}
	return bounds, counts, nil
}

// MergeSnapshots reduces any number of snapshots into one: counters add,
// gauges add values and max maxima, histograms merge bucket-wise. Inputs
// must agree on histogram bucket bounds. The result is name-sorted like
// any Snapshot, so merging is order-independent byte for byte.
func MergeSnapshots(snaps ...Snapshot) (Snapshot, error) {
	r := New()
	for _, s := range snaps {
		if err := r.MergeSnapshot(s); err != nil {
			return Snapshot{}, err
		}
	}
	return r.Snapshot(), nil
}
