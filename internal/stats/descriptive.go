// Package stats implements the statistical machinery of the paper's
// Section V-A: descriptive statistics and coefficients of variation
// (Table II), empirical distributions and quantiles (Fig. 7), the
// autocorrelation function, ANOVA-based period detection (Fig. 9), and the
// idle-time hazard analysis behind Figs. 10-13.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by estimators that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// CoV returns the coefficient of variation (standard deviation over mean),
// the statistic Table II of the paper reports for idle-interval durations.
// It returns 0 when the mean is 0.
func CoV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / m
}

// Summary bundles the Table II statistics for one sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64
	CoV      float64
	Min      float64
	Max      float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Mean = Mean(xs)
	s.Variance = Variance(xs)
	s.CoV = CoV(xs)
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s
}

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. xs need not be sorted.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return QuantileSorted(sorted, q), nil
}

// QuantileSorted is Quantile for an already ascending-sorted slice. It
// avoids the copy and is safe to call in inner loops. q outside [0,1] is
// clamped.
func QuantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDF is an empirical cumulative distribution function over a fixed sample.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (copied, then sorted).
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// Points returns up to n (x, P(X<=x)) pairs spanning the sample, suitable
// for plotting Fig. 7-style response-time CDFs.
func (c *CDF) Points(n int) (xs, ps []float64) {
	if len(c.sorted) == 0 || n <= 0 {
		return nil, nil
	}
	if n > len(c.sorted) {
		n = len(c.sorted)
	}
	xs = make([]float64, n)
	ps = make([]float64, n)
	for i := 0; i < n; i++ {
		idx := i * (len(c.sorted) - 1) / max(n-1, 1)
		xs[i] = c.sorted[idx]
		ps[i] = float64(idx+1) / float64(len(c.sorted))
	}
	return xs, ps
}
