package stats

import (
	"math"
	"math/rand"
	"testing"
)

// sampleWeibull draws from Weibull(k, lambda) by inversion.
func sampleWeibull(rng *rand.Rand, k, lambda float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		u := rng.Float64()
		xs[i] = lambda * math.Pow(-math.Log(1-u), 1/k)
	}
	return xs
}

func TestFitWeibullRecovers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ k, lambda float64 }{
		{0.5, 2.0},  // decreasing hazard (the idle-time shape)
		{1.0, 0.5},  // exponential
		{2.5, 10.0}, // increasing hazard
	}
	for _, c := range cases {
		xs := sampleWeibull(rng, c.k, c.lambda, 50000)
		w, err := FitWeibull(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(w.Shape-c.k) > 0.05*c.k {
			t.Fatalf("k = %v, want ~%v", w.Shape, c.k)
		}
		if math.Abs(w.Scale-c.lambda) > 0.05*c.lambda {
			t.Fatalf("lambda = %v, want ~%v", w.Scale, c.lambda)
		}
	}
}

func TestFitWeibullErrors(t *testing.T) {
	if _, err := FitWeibull([]float64{1, 2, 3}); err == nil {
		t.Fatal("tiny sample accepted")
	}
	bad := make([]float64, 20)
	for i := range bad {
		bad[i] = 1
	}
	bad[10] = -1
	if _, err := FitWeibull(bad); err == nil {
		t.Fatal("negative sample accepted")
	}
}

func TestWeibullOnHeavyTailIdleGaps(t *testing.T) {
	// Lognormal idle gaps (the trace generator's family) fit a Weibull
	// with k << 1: the decreasing-hazard signature the paper relies on.
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 0.1 * math.Exp(2*rng.NormFloat64())
	}
	w, err := FitWeibull(xs)
	if err != nil {
		t.Fatal(err)
	}
	if w.Shape > 0.8 {
		t.Fatalf("heavy-tailed gaps fitted k = %v, want << 1", w.Shape)
	}
}
