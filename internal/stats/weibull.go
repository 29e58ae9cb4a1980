package stats

import (
	"errors"
	"math"
)

// Weibull holds a fitted two-parameter Weibull distribution. Its shape
// parameter k is the sharpest test of the paper's Section V-A hazard
// claim: a Weibull hazard rate decreases monotonically iff k < 1, so
// fitting idle-interval durations and finding k well below 1 confirms
// "the longer the system has been idle, the longer it is expected to
// stay idle" in one number.
type Weibull struct {
	// Shape is k: hazard decreasing iff k < 1, exponential at k = 1.
	Shape float64
	// Scale is lambda.
	Scale float64
}

// FitWeibull fits by maximum likelihood: Newton iteration on the shape
// profile equation, then the closed-form scale. Requires positive data.
func FitWeibull(xs []float64) (Weibull, error) {
	n := len(xs)
	if n < 8 {
		return Weibull{}, errors.New("stats: need >= 8 samples for Weibull fit")
	}
	var sumLog float64
	for _, x := range xs {
		if x <= 0 {
			return Weibull{}, errors.New("stats: Weibull needs positive samples")
		}
		sumLog += math.Log(x)
	}
	meanLog := sumLog / float64(n)

	// Profile equation: f(k) = sum(x^k ln x)/sum(x^k) - 1/k - meanLog = 0.
	f := func(k float64) float64 {
		var sxk, sxkl float64
		for _, x := range xs {
			xk := math.Pow(x, k)
			sxk += xk
			sxkl += xk * math.Log(x)
		}
		return sxkl/sxk - 1/k - meanLog
	}
	// f is increasing in k; bisect a bracketing interval.
	lo, hi := 1e-3, 1.0
	for f(hi) < 0 && hi < 1e3 {
		lo = hi
		hi *= 2
	}
	if f(hi) < 0 {
		return Weibull{}, errors.New("stats: Weibull shape out of range")
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2
	var sxk float64
	for _, x := range xs {
		sxk += math.Pow(x, k)
	}
	lambda := math.Pow(sxk/float64(n), 1/k)
	return Weibull{Shape: k, Scale: lambda}, nil
}
