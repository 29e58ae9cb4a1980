package obs

import (
	"errors"
	"fmt"
	"slices"
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
		*r.Counter(c.Name).v += c.Value
	}
	for _, g := range s.Gauges {
		mergeWindow(kindGauge, r.Gauge(g.Name).w[:], []int64{g.Value, g.Max, 1})
	}
	for _, hs := range s.Histograms {
		bounds, w, err := histWindow(hs)
		if err != nil {
			return err
		}
		dst := r.HistogramBuckets(hs.Name, bounds)
		if !slices.Equal(dst.bounds, bounds) {
			return fmt.Errorf("obs: histogram %q bucket mismatch: bounds %v vs %v", hs.Name, dst.bounds, bounds)
		}
		mergeWindow(kindHistogram, dst.w, w)
	}
	return nil
}

// histWindow splits a histogram snapshot into its bounds and its window
// of a value vector (count, sum, min, max, buckets), validating the
// shape: ascending bounds, exactly one trailing overflow bucket.
func histWindow(hs HistSnap) ([]time.Duration, []int64, error) {
	if len(hs.Buckets) < 1 {
		return nil, nil, fmt.Errorf("obs: histogram %q snapshot has no buckets", hs.Name)
	}
	n := len(hs.Buckets) - 1
	bounds := make([]time.Duration, n)
	w := make([]int64, histHeader, histHeader+n+1)
	w[0], w[1], w[2], w[3] = hs.Count, hs.SumNanos, hs.MinNanos, hs.MaxNanos
	for i, b := range hs.Buckets {
		w = append(w, b.Count)
		if i == n {
			if b.LeNanos != -1 {
				return nil, nil, fmt.Errorf("obs: histogram %q snapshot missing overflow bucket", hs.Name)
			}
			break
		}
		if b.LeNanos < 0 {
			return nil, nil, fmt.Errorf("obs: histogram %q snapshot has overflow bucket at %d", hs.Name, i)
		}
		if i > 0 && b.LeNanos <= int64(bounds[i-1]) {
			return nil, nil, fmt.Errorf("obs: histogram %q snapshot bounds not ascending at %d", hs.Name, i)
		}
		bounds[i] = time.Duration(b.LeNanos)
	}
	return bounds, w, nil
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
