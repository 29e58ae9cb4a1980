package arima

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genAR produces n samples of an AR(p) process with the given coefficients,
// mean mu and unit-variance noise.
func genAR(rng *rand.Rand, coeffs []float64, mu float64, n int) []float64 {
	xs := make([]float64, n+200)
	for i := range xs {
		v := mu
		for j, a := range coeffs {
			if i-j-1 >= 0 {
				v += a * (xs[i-j-1] - mu)
			}
		}
		xs[i] = v + rng.NormFloat64()
	}
	return xs[200:] // drop burn-in
}

func TestFitRecoverAR1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := genAR(rng, []float64{0.7}, 10, 50000)
	m, err := FitAIC(xs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coeffs[0]-0.7) > 0.02 {
		t.Fatalf("a1 = %v, want ~0.7", m.Coeffs[0])
	}
	if math.Abs(m.Mean-10) > 0.2 {
		t.Fatalf("mu = %v, want ~10", m.Mean)
	}
	if math.Abs(m.NoiseVar-1) > 0.05 {
		t.Fatalf("sigma2 = %v, want ~1", m.NoiseVar)
	}
}

func TestFitRecoverAR2(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	want := []float64{0.5, -0.3}
	xs := genAR(rng, want, 0, 80000)
	m, err := FitAIC(xs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order() != 2 {
		t.Fatalf("selected order %d, want 2", m.Order())
	}
	for i := range want {
		if math.Abs(m.Coeffs[i]-want[i]) > 0.02 {
			t.Fatalf("coeffs = %v, want ~%v", m.Coeffs, want)
		}
	}
}

func TestFitAICSelectsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := genAR(rng, []float64{0.5, -0.3}, 0, 50000)
	m, err := FitAIC(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	// AIC should pick a low order close to the true 2, never the max.
	if m.Order() < 2 || m.Order() > 5 {
		t.Fatalf("selected order %d, want 2..5", m.Order())
	}
	if math.Abs(m.Coeffs[0]-0.5) > 0.03 || math.Abs(m.Coeffs[1]+0.3) > 0.03 {
		t.Fatalf("coeffs = %v", m.Coeffs)
	}
}

func TestFitAICWhiteNoisePrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = 5 + rng.NormFloat64()
	}
	m, err := FitAIC(xs, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction for white noise should stay near the mean regardless of
	// history.
	pred := m.Predict([]float64{5.3, 4.9, 5.1})
	if math.Abs(pred-5) > 0.2 {
		t.Fatalf("prediction = %v, want ~5", pred)
	}
}

func TestPredictShortHistory(t *testing.T) {
	m := &Model{Coeffs: []float64{0.5, 0.25}, Mean: 2}
	// One observation only: second lag falls back to the mean.
	got := m.Predict([]float64{4})
	want := 2 + 0.5*(4-2)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("Predict = %v, want %v", got, want)
	}
	// Empty history: the mean.
	if got := m.Predict(nil); got != 2 {
		t.Fatalf("Predict(nil) = %v, want 2", got)
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitAIC([]float64{1, 2}, 3); err == nil {
		t.Fatal("want error for too-short series")
	}
	if _, err := FitAIC([]float64{1, 2, 3}, -1); err == nil {
		t.Fatal("want error for negative order")
	}
	if _, err := FitAIC([]float64{1}, 4); err == nil {
		t.Fatal("want error for too-short series")
	}
	if _, err := FitAIC([]float64{1, 2, 3, 4}, 0); err == nil {
		t.Fatal("want error for zero maxOrder")
	}
	if _, err := FitAIC([]float64{7, 7, 7, 7, 7}, 1); err == nil {
		t.Fatal("want error for constant series")
	}
}

func TestFitAICClampsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 10)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	m, err := FitAIC(xs, 50)
	if err != nil {
		t.Fatal(err)
	}
	if m.Order() > 8 {
		t.Fatalf("order %d not clamped", m.Order())
	}
}

func TestModelString(t *testing.T) {
	m := &Model{Coeffs: []float64{0.5}, Mean: 1, NoiseVar: 2, AIC: 3}
	if s := m.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// Property: fitted AR(1) coefficient is always within (-1, 1) for
// stationary input, and the noise variance is non-negative.
func TestPropertyStationarity(t *testing.T) {
	f := func(seed int64, phiRaw uint8) bool {
		phi := (float64(phiRaw)/255)*1.8 - 0.9 // in [-0.9, 0.9]
		rng := rand.New(rand.NewSource(seed))
		xs := genAR(rng, []float64{phi}, 0, 5000)
		m, err := FitAIC(xs, 1)
		if err != nil {
			return false
		}
		return m.Coeffs[0] > -1 && m.Coeffs[0] < 1 && m.NoiseVar >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictorStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pred := NewPredictor(4, 512, 64)
	if pred.Ready() {
		t.Fatal("predictor ready with no data")
	}
	xs := genAR(rng, []float64{0.8}, 100, 5000)
	var sqErrAR, sqErrMean float64
	mean := 0.0
	for i, x := range xs {
		if i > 1000 {
			p := pred.PredictNext()
			sqErrAR += (p - x) * (p - x)
			sqErrMean += (mean - x) * (mean - x)
		}
		pred.Observe(x)
		mean += (x - mean) / float64(i+1)
	}
	if pred.Model() == nil {
		t.Fatal("predictor never fitted")
	}
	// AR prediction must clearly beat the running mean for an AR(1) input.
	if sqErrAR >= sqErrMean*0.75 {
		t.Fatalf("AR MSE %.1f not better than mean MSE %.1f", sqErrAR, sqErrMean)
	}
}

func TestPredictorWindowSlides(t *testing.T) {
	pred := NewPredictor(2, 16, 4)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		pred.Observe(rng.NormFloat64())
		pred.PredictNext()
	}
	if len(pred.history) > 32 {
		t.Fatalf("history grew to %d, want <= 2*window", len(pred.history))
	}
}

func TestPredictorDefaults(t *testing.T) {
	p := NewPredictor(0, 0, 0)
	if p.maxOrder != 8 || p.window != 4096 || p.refitEvm != 256 {
		t.Fatalf("defaults = %d %d %d", p.maxOrder, p.window, p.refitEvm)
	}
	// Before Ready, prediction is the running mean.
	p.Observe(4)
	p.Observe(6)
	if got := p.PredictNext(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("pre-ready prediction = %v, want 5", got)
	}
}

func TestLevinsonDurbinAllNoiseMonotone(t *testing.T) {
	// Innovation variance must be non-increasing with order: per order in
	// the reference recursion (which TestFitAICMatchesReference ties to
	// the live one bit for bit), and for FitAIC as its order bound grows.
	rng := rand.New(rand.NewSource(8))
	xs := genAR(rng, []float64{0.6, 0.2}, 0, 20000)
	var prevRef, prevAIC *Model
	for p := 1; p <= 6; p++ {
		ref, err := refFit(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		m, err := FitAIC(xs, p)
		if err != nil {
			t.Fatal(err)
		}
		if p > 1 && ref.NoiseVar > prevRef.NoiseVar+1e-9 {
			t.Fatalf("noise var increased from order %d (%v) to %d (%v)",
				p-1, prevRef.NoiseVar, p, ref.NoiseVar)
		}
		if p > 1 && m.NoiseVar > prevAIC.NoiseVar {
			t.Fatalf("FitAIC noise var increased from bound %d (%v) to %d (%v)",
				p-1, prevAIC.NoiseVar, p, m.NoiseVar)
		}
		prevRef, prevAIC = ref, m
	}
}
