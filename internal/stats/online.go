package stats

import (
	"math"
	"time"
)

// This file is the streaming counterpart of idle.go: where IdleAnalysis
// sorts a complete idle-interval sample, OnlineIdle maintains a
// fixed-bucket histogram of idle durations that can be updated one
// observation at a time with no allocation and no re-sort. The daemon
// (internal/scrubd) keeps one per device; the same Section V-A curves
// (expected remaining idle time, fraction of intervals longer than t)
// are answered from bucket sums instead of the sorted sample.
//
// All state is integer nanoseconds, so observation order, batch
// boundaries and serialization round-trips never perturb the answers:
// two devices that saw the same idle intervals hold byte-identical
// state.

// DefaultIdleBuckets returns the fixed log-spaced (1-2-5 per decade)
// upper bounds used for online idle histograms, 100 µs through 1 h.
// Like obs.DefaultLatencyBuckets the set never adapts to data, keeping
// exports and checkpoints byte-stable.
func DefaultIdleBuckets() []time.Duration {
	out := make([]time.Duration, 0, 27)
	for base := 100 * time.Microsecond; base <= 10*time.Minute; base *= 10 {
		out = append(out, base, 2*base, 5*base)
	}
	return append(out, time.Hour)
}

// OnlineIdle is an online fixed-bucket histogram of idle-interval
// durations. Observe is allocation-free; the conditional-distribution
// queries (ExpectedRemaining, FractionLonger, Quantile) are O(buckets).
type OnlineIdle struct {
	bounds []int64 // ascending upper bounds, nanoseconds
	counts []int64 // len(bounds)+1; last is the overflow bucket
	sums   []int64 // per-bucket sum of observations, nanoseconds
	total  int64   // observation count
	sum    int64   // sum of all observations, nanoseconds
	max    int64   // largest observation, nanoseconds
}

// NewOnlineIdle builds an online idle histogram over the given ascending
// upper bounds (nil selects DefaultIdleBuckets).
func NewOnlineIdle(bounds []time.Duration) *OnlineIdle {
	if len(bounds) == 0 {
		bounds = DefaultIdleBuckets()
	}
	b := make([]int64, len(bounds))
	for i, d := range bounds {
		b[i] = int64(d)
	}
	return &OnlineIdle{
		bounds: b,
		counts: make([]int64, len(b)+1),
		sums:   make([]int64, len(b)+1),
	}
}

// bucketOf locates the bucket for a duration of d nanoseconds.
//
//scrub:hotpath
func (o *OnlineIdle) bucketOf(d int64) int {
	lo, hi := 0, len(o.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= o.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one idle interval. Non-positive intervals are ignored
// (an idle interval has positive length by construction).
//
//scrub:hotpath
func (o *OnlineIdle) Observe(d time.Duration) {
	n := int64(d)
	if n <= 0 {
		return
	}
	i := o.bucketOf(n)
	o.counts[i]++
	o.sums[i] += n
	o.total++
	o.sum += n
	if n > o.max {
		o.max = n
	}
}

// Count returns the number of observed idle intervals.
func (o *OnlineIdle) Count() int64 { return o.total }

// Sum returns the total observed idle time.
func (o *OnlineIdle) Sum() time.Duration { return time.Duration(o.sum) }

// Max returns the largest observed idle interval.
func (o *OnlineIdle) Max() time.Duration { return time.Duration(o.max) }

// ExpectedRemaining is the online estimate of Fig. 11's curve: given the
// device has already been idle for t, the expected additional idle time
// E[D - t | D > t]. The conditioning set is approximated by the buckets
// whose upper bound exceeds t, so the estimate is exact when t lands on
// a bucket boundary and at most one bucket coarse otherwise. Returns 0
// when no observed interval can still exceed t.
//
//scrub:hotpath
func (o *OnlineIdle) ExpectedRemaining(t time.Duration) time.Duration {
	tn := int64(t)
	if tn < 0 {
		tn = 0
	}
	start := o.bucketOf(tn)
	if start < len(o.bounds) && o.bounds[start] == tn {
		start++ // boundary: bucket `start` holds values <= t entirely
	}
	var n, s int64
	for i := start; i < len(o.counts); i++ {
		n += o.counts[i]
		s += o.sums[i]
	}
	if n == 0 {
		return 0
	}
	rem := s/n - tn
	if rem < 0 {
		rem = 0
	}
	return time.Duration(rem)
}

// FractionLonger returns the fraction of observed idle intervals whose
// bucket lies strictly above t, the online analogue of
// IdleAnalysis.FractionLonger.
func (o *OnlineIdle) FractionLonger(t time.Duration) float64 {
	if o.total == 0 {
		return 0
	}
	tn := int64(t)
	if tn < 0 {
		tn = 0
	}
	start := o.bucketOf(tn)
	if start < len(o.bounds) && o.bounds[start] == tn {
		start++
	}
	var n int64
	for i := start; i < len(o.counts); i++ {
		n += o.counts[i]
	}
	return float64(n) / float64(o.total)
}

// Quantile returns an upper bound for the q-quantile of the idle
// distribution: the bound of the bucket holding the observation of
// nearest rank ceil(q·n) (the maximum observed value for the overflow
// bucket).
func (o *OnlineIdle) Quantile(q float64) time.Duration {
	if o.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	need := int64(math.Ceil(q * float64(o.total)))
	if need < 1 {
		need = 1
	}
	seen := int64(0)
	for i, c := range o.counts {
		seen += c
		if seen >= need {
			if i < len(o.bounds) {
				return time.Duration(o.bounds[i])
			}
			return time.Duration(o.max)
		}
	}
	return time.Duration(o.max)
}

// OnlineIdleState is the serializable snapshot of an OnlineIdle; all
// fields are integers, so encode/decode round-trips are exact.
//
//scrublint:snapshot OnlineIdle bounds=BoundsNanos sums=SumsNanos sum=SumNanos max=MaxNanos
type OnlineIdleState struct {
	BoundsNanos []int64
	Counts      []int64
	SumsNanos   []int64
	Total       int64
	SumNanos    int64
	MaxNanos    int64
}

// State copies the histogram into a serializable snapshot.
func (o *OnlineIdle) State() OnlineIdleState {
	return OnlineIdleState{
		BoundsNanos: append([]int64(nil), o.bounds...),
		Counts:      append([]int64(nil), o.counts...),
		SumsNanos:   append([]int64(nil), o.sums...),
		Total:       o.total,
		SumNanos:    o.sum,
		MaxNanos:    o.max,
	}
}

// RestoreOnlineIdle rebuilds a histogram from a snapshot. The shape is
// validated so a corrupted checkpoint is rejected rather than trusted.
func RestoreOnlineIdle(st OnlineIdleState) (*OnlineIdle, bool) {
	if len(st.BoundsNanos) == 0 ||
		len(st.Counts) != len(st.BoundsNanos)+1 ||
		len(st.SumsNanos) != len(st.BoundsNanos)+1 {
		return nil, false
	}
	for i := 1; i < len(st.BoundsNanos); i++ {
		if st.BoundsNanos[i] <= st.BoundsNanos[i-1] {
			return nil, false
		}
	}
	return &OnlineIdle{
		bounds: append([]int64(nil), st.BoundsNanos...),
		counts: append([]int64(nil), st.Counts...),
		sums:   append([]int64(nil), st.SumsNanos...),
		total:  st.Total,
		sum:    st.SumNanos,
		max:    st.MaxNanos,
	}, true
}
