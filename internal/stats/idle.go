package stats

import (
	"sort"
	"time"
)

// This file implements the idle-time analysis of Section V-A: extraction of
// idle intervals from a request trace and the four curves of Figs. 10-13
// (idle-time tail concentration, expected remaining idle time, percentile
// of remaining idle time, and fraction of idle time usable after waiting).

// IdleGaps extracts idle intervals from arrival times alone, treating each
// request's service time as zero; the result is the inter-arrival gap
// series. The paper's Section V analysis models inter-arrival durations
// this way when fitting AR models.
func IdleGaps(arrivals []time.Duration) []time.Duration {
	if len(arrivals) < 2 {
		return nil
	}
	gaps := make([]time.Duration, 0, len(arrivals)-1)
	for i := 1; i < len(arrivals); i++ {
		if d := arrivals[i] - arrivals[i-1]; d > 0 {
			gaps = append(gaps, d)
		}
	}
	return gaps
}

// IdleAnalysis precomputes the sorted idle-interval sample so that the four
// paper curves can each be evaluated in O(log n) or O(n) total.
type IdleAnalysis struct {
	sorted []float64 // seconds, ascending
	suffix []float64 // suffix[i] = sum of sorted[i:]
	total  float64   // sum of all idle time (seconds)
}

// NewIdleAnalysis builds an IdleAnalysis from idle-interval durations.
func NewIdleAnalysis(idles []time.Duration) *IdleAnalysis {
	xs := make([]float64, len(idles))
	for i, d := range idles {
		xs[i] = d.Seconds()
	}
	sort.Float64s(xs)
	suffix := make([]float64, len(xs)+1)
	for i := len(xs) - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + xs[i]
	}
	return &IdleAnalysis{sorted: xs, suffix: suffix, total: suffix[0]}
}

// Durations returns the idle durations in seconds, ascending. The returned
// slice is shared; callers must not modify it.
func (a *IdleAnalysis) Durations() []float64 { return a.sorted }

// TailShare answers Fig. 10: the fraction of total idle time contained in
// the frac (0..1) largest idle intervals.
func (a *IdleAnalysis) TailShare(frac float64) float64 {
	if a.total == 0 || len(a.sorted) == 0 {
		return 0
	}
	if frac <= 0 {
		return 0
	}
	if frac >= 1 {
		return 1
	}
	k := int(frac * float64(len(a.sorted)))
	if k < 1 {
		k = 1
	}
	return a.suffix[len(a.sorted)-k] / a.total
}

// ExpectedRemaining answers Fig. 11: given the disk has already been idle
// for t seconds, the expected additional idle time before the next request,
// i.e. E[D - t | D > t]. It returns 0 when no interval exceeds t.
func (a *IdleAnalysis) ExpectedRemaining(t float64) float64 {
	i := sort.SearchFloat64s(a.sorted, t)
	for i < len(a.sorted) && a.sorted[i] <= t {
		i++
	}
	n := len(a.sorted) - i
	if n == 0 {
		return 0
	}
	return (a.suffix[i] - t*float64(n)) / float64(n)
}

// RemainingQuantile answers Fig. 12 for q=0.01: the q-th quantile of the
// remaining idle time D - t among intervals with D > t. In 1-q of the cases
// the remaining idle time is at least this value.
func (a *IdleAnalysis) RemainingQuantile(t, q float64) float64 {
	i := sort.SearchFloat64s(a.sorted, t)
	for i < len(a.sorted) && a.sorted[i] <= t {
		i++
	}
	if i >= len(a.sorted) {
		return 0
	}
	return QuantileSorted(a.sorted[i:], q) - t
}

// UsableAfterWait answers Fig. 13: the fraction of the total idle time that
// remains exploitable when scrub requests are only issued once the disk has
// been idle for t seconds (the wait time itself is lost).
func (a *IdleAnalysis) UsableAfterWait(t float64) float64 {
	if a.total == 0 {
		return 0
	}
	i := sort.SearchFloat64s(a.sorted, t)
	for i < len(a.sorted) && a.sorted[i] <= t {
		i++
	}
	n := len(a.sorted) - i
	return (a.suffix[i] - t*float64(n)) / a.total
}

// FractionLonger returns the fraction of idle intervals strictly longer
// than t seconds: the collision-opportunity bound the paper quotes ("less
// than 10% of all idle intervals are larger than 100 msec").
func (a *IdleAnalysis) FractionLonger(t float64) float64 {
	if len(a.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(a.sorted, t)
	for i < len(a.sorted) && a.sorted[i] <= t {
		i++
	}
	return float64(len(a.sorted)-i) / float64(len(a.sorted))
}

// HazardDecreasing reports whether the empirical distribution exhibits
// decreasing hazard rates in the sense the paper checks: the expected
// remaining idle time is (weakly) increasing across the given probe points.
// A tolerance fraction allows small non-monotonic wiggles from sampling
// noise.
func (a *IdleAnalysis) HazardDecreasing(probes []float64, tolerance float64) bool {
	if len(probes) < 2 {
		return true
	}
	violations := 0
	prev := a.ExpectedRemaining(probes[0])
	for _, t := range probes[1:] {
		cur := a.ExpectedRemaining(t)
		if cur == 0 { // ran out of sample
			break
		}
		if cur < prev*(1-tolerance) {
			violations++
		}
		prev = cur
	}
	return violations == 0
}
