package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestIdleGaps(t *testing.T) {
	s := time.Second
	gaps := IdleGaps([]time.Duration{0, s, 3 * s, 3 * s, 7 * s})
	want := []time.Duration{s, 2 * s, 4 * s}
	if len(gaps) != len(want) {
		t.Fatalf("gaps = %v", gaps)
	}
	for i := range want {
		if gaps[i] != want[i] {
			t.Fatalf("gaps = %v, want %v", gaps, want)
		}
	}
	if IdleGaps([]time.Duration{time.Second}) != nil {
		t.Fatal("single arrival should give nil gaps")
	}
}

func mkAnalysis(secs ...float64) *IdleAnalysis {
	ds := make([]time.Duration, len(secs))
	for i, s := range secs {
		ds[i] = time.Duration(s * float64(time.Second))
	}
	return NewIdleAnalysis(ds)
}

func TestTailShare(t *testing.T) {
	// Nine intervals of 1s and one of 91s: the largest 10% of intervals
	// carry 91% of idle time.
	a := mkAnalysis(1, 1, 1, 1, 1, 1, 1, 1, 1, 91)
	if got := a.TailShare(0.10); !almostEqual(got, 0.91, 1e-9) {
		t.Fatalf("TailShare(0.10) = %v, want 0.91", got)
	}
	if got := a.TailShare(1.0); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("TailShare(1) = %v, want 1", got)
	}
	if got := a.TailShare(0); got != 0 {
		t.Fatalf("TailShare(0) = %v, want 0", got)
	}
	// Tiny fraction still counts at least one interval.
	if got := a.TailShare(0.001); !almostEqual(got, 0.91, 1e-9) {
		t.Fatalf("TailShare(0.001) = %v, want 0.91", got)
	}
}

func TestExpectedRemaining(t *testing.T) {
	a := mkAnalysis(1, 2, 3, 4)
	// At t=0: E[D] = 2.5. (All intervals exceed 0.)
	if got := a.ExpectedRemaining(0); !almostEqual(got, 2.5, 1e-9) {
		t.Fatalf("E[R|0] = %v, want 2.5", got)
	}
	// At t=2: survivors {3,4}, remaining {1,2}, mean 1.5.
	if got := a.ExpectedRemaining(2); !almostEqual(got, 1.5, 1e-9) {
		t.Fatalf("E[R|2] = %v, want 1.5", got)
	}
	// Past the max: 0.
	if got := a.ExpectedRemaining(10); got != 0 {
		t.Fatalf("E[R|10] = %v, want 0", got)
	}
}

func TestExpectedRemainingIncreasingForPareto(t *testing.T) {
	// Pareto(alpha=1.5) has a linearly increasing mean residual life; the
	// estimator must show an increasing curve (the paper's Fig. 11 shape).
	rng := rand.New(rand.NewSource(2))
	ds := make([]time.Duration, 50000)
	for i := range ds {
		u := rng.Float64()
		x := 0.001 * math.Pow(1-u, -1/1.5) // xm=1ms
		ds[i] = time.Duration(x * float64(time.Second))
	}
	a := NewIdleAnalysis(ds)
	probes := []float64{0.001, 0.01, 0.1, 1}
	prev := 0.0
	for _, p := range probes {
		cur := a.ExpectedRemaining(p)
		if cur <= prev {
			t.Fatalf("E[R|%v] = %v not increasing (prev %v)", p, cur, prev)
		}
		prev = cur
	}
	if !a.HazardDecreasing(probes, 0.05) {
		t.Fatal("HazardDecreasing = false for Pareto sample")
	}
}

func TestHazardNotDecreasingForUniform(t *testing.T) {
	// Uniform(0,1) has increasing hazard; expected remaining decreases.
	rng := rand.New(rand.NewSource(4))
	ds := make([]time.Duration, 20000)
	for i := range ds {
		ds[i] = time.Duration(rng.Float64() * float64(time.Second))
	}
	a := NewIdleAnalysis(ds)
	if a.HazardDecreasing([]float64{0.0, 0.3, 0.6, 0.9}, 0.01) {
		t.Fatal("HazardDecreasing = true for uniform sample")
	}
}

func TestRemainingQuantile(t *testing.T) {
	a := mkAnalysis(1, 2, 3, 4, 5)
	// Survivors of t=2.5: {3,4,5}; 0th percentile of remaining = 0.5.
	if got := a.RemainingQuantile(2.5, 0); !almostEqual(got, 0.5, 1e-9) {
		t.Fatalf("RemainingQuantile = %v, want 0.5", got)
	}
	if got := a.RemainingQuantile(100, 0.01); got != 0 {
		t.Fatalf("RemainingQuantile past max = %v, want 0", got)
	}
}

func TestUsableAfterWait(t *testing.T) {
	a := mkAnalysis(1, 1, 8)
	// Total 10s. Waiting 1s: only the 8s interval survives, usable 7s.
	if got := a.UsableAfterWait(1); !almostEqual(got, 0.7, 1e-9) {
		t.Fatalf("UsableAfterWait(1) = %v, want 0.7", got)
	}
	if got := a.UsableAfterWait(0); !almostEqual(got, 1, 1e-9) {
		t.Fatalf("UsableAfterWait(0) = %v, want 1", got)
	}
	if got := a.UsableAfterWait(100); got != 0 {
		t.Fatalf("UsableAfterWait(100) = %v, want 0", got)
	}
}

func TestFractionLonger(t *testing.T) {
	a := mkAnalysis(0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.05, 0.5)
	if got := a.FractionLonger(0.1); !almostEqual(got, 0.1, 1e-9) {
		t.Fatalf("FractionLonger(0.1) = %v, want 0.1", got)
	}
}

func TestIdleAnalysisEmpty(t *testing.T) {
	a := NewIdleAnalysis(nil)
	if len(a.Durations()) != 0 || a.total != 0 || a.TailShare(0.5) != 0 ||
		a.ExpectedRemaining(0) != 0 || a.UsableAfterWait(0) != 0 ||
		a.FractionLonger(0) != 0 {
		t.Fatal("empty analysis should return zeros")
	}
}

// Property: UsableAfterWait is non-increasing in the wait time and bounded
// by [0, 1]; TailShare is non-decreasing in the fraction.
func TestPropertyIdleCurvesMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := make([]time.Duration, 200)
		for i := range ds {
			ds[i] = time.Duration(rng.ExpFloat64() * float64(time.Second))
		}
		a := NewIdleAnalysis(ds)
		prev := math.Inf(1)
		for w := 0.0; w < 5; w += 0.1 {
			u := a.UsableAfterWait(w)
			if u < 0 || u > 1+1e-9 || u > prev+1e-9 {
				return false
			}
			prev = u
		}
		prevShare := -1.0
		for fr := 0.0; fr <= 1.0; fr += 0.05 {
			s := a.TailShare(fr)
			if s < prevShare-1e-9 {
				return false
			}
			prevShare = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestACF(t *testing.T) {
	// AR(1) with phi=0.8 must show acf ~ phi^lag.
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 100000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.8*xs[i-1] + rng.NormFloat64()
	}
	r := ACF(xs, 5)
	if !almostEqual(r[0], 1, 1e-12) {
		t.Fatalf("r[0] = %v, want 1", r[0])
	}
	for lag := 1; lag <= 5; lag++ {
		want := math.Pow(0.8, float64(lag))
		if !almostEqual(r[lag], want, 0.03) {
			t.Fatalf("r[%d] = %v, want ~%v", lag, r[lag], want)
		}
	}
	if !HasStrongAutocorrelation(xs, 10) {
		t.Fatal("AR(1) series should show strong autocorrelation")
	}
}

func TestACFWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if HasStrongAutocorrelation(xs, 10) {
		t.Fatal("white noise flagged as strongly autocorrelated")
	}
}

func TestACFEdgeCases(t *testing.T) {
	if r := ACF(nil, 5); len(r) != 0 {
		t.Fatalf("ACF(nil) = %v", r)
	}
	r := ACF([]float64{3, 3, 3}, 2)
	if r[0] != 1 || r[1] != 0 {
		t.Fatalf("constant series ACF = %v", r)
	}
	if HasStrongAutocorrelation([]float64{1, 2}, 5) {
		t.Fatal("tiny series cannot be strongly autocorrelated")
	}
	c := Autocovariance([]float64{1, 2, 3, 4}, 1)
	if len(c) != 2 || !almostEqual(c[0], Variance([]float64{1, 2, 3, 4}), 1e-12) {
		t.Fatalf("Autocovariance = %v", c)
	}
	if Autocovariance(nil, 3) != nil && len(Autocovariance(nil, 3)) != 0 {
		t.Fatal("Autocovariance(nil) should be empty")
	}
}
