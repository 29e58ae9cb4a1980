package arima

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestFitARIRecoversTrendedAR(t *testing.T) {
	// Random walk with AR(1) increments: ARI(1,1) should recover the
	// increment coefficient.
	rng := rand.New(rand.NewSource(1))
	inc := genAR(rng, []float64{0.6}, 0, 30000)
	xs := make([]float64, len(inc))
	cum := 0.0
	for i, d := range inc {
		cum += d
		xs[i] = cum
	}
	m, err := FitARI(xs, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.D != 1 {
		t.Fatalf("D = %d", m.D)
	}
	if math.Abs(m.AR.Coeffs[0]-0.6) > 0.05 {
		t.Fatalf("increment AR coeff = %v, want ~0.6", m.AR.Coeffs[0])
	}
	// Prediction continues the walk plausibly: next ~ last + predicted
	// increment.
	hist := xs[len(xs)-50:]
	pred := m.Predict(hist)
	lastInc := hist[len(hist)-1] - hist[len(hist)-2]
	want := hist[len(hist)-1] + 0.6*lastInc
	if math.Abs(pred-want) > math.Abs(lastInc)+1 {
		t.Fatalf("prediction %v far from %v", pred, want)
	}
}

func TestFitARIDegenerate(t *testing.T) {
	if _, err := FitARI([]float64{1, 2, 3}, 3, 2); err == nil {
		t.Fatal("d=3 accepted")
	}
	if _, err := FitARI([]float64{1, 2}, 1, 2); err == nil {
		t.Fatal("tiny series accepted")
	}
	// d=0 delegates to plain AR.
	rng := rand.New(rand.NewSource(2))
	xs := genAR(rng, []float64{0.5}, 0, 5000)
	m, err := FitARI(xs, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict(xs[:100]); math.IsNaN(got) {
		t.Fatal("NaN prediction")
	}
	// Short-history predictions fall back gracefully.
	m1, _ := FitARI(xs, 1, 2)
	if got := m1.Predict([]float64{5}); got != 5 {
		t.Fatalf("short-history ARI prediction = %v, want last value", got)
	}
	if got := m1.Predict(nil); math.IsNaN(got) {
		t.Fatal("empty-history NaN")
	}
}

func TestFitARMARecoversMA(t *testing.T) {
	// ARMA(1,1) with phi=0.5, theta=0.4.
	rng := rand.New(rand.NewSource(3))
	n := 60000
	xs := make([]float64, n)
	prevE := 0.0
	for i := 1; i < n; i++ {
		e := rng.NormFloat64()
		xs[i] = 0.5*xs[i-1] + e + 0.4*prevE
		prevE = e
	}
	m, err := FitARMA(xs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Phi[0]-0.5) > 0.08 {
		t.Fatalf("phi = %v, want ~0.5", m.Phi[0])
	}
	if math.Abs(m.Theta[0]-0.4) > 0.08 {
		t.Fatalf("theta = %v, want ~0.4", m.Theta[0])
	}
	if m.NoiseVar < 0.8 || m.NoiseVar > 1.2 {
		t.Fatalf("noise var = %v, want ~1", m.NoiseVar)
	}
	p, q := m.Order()
	if p != 1 || q != 1 {
		t.Fatalf("order = (%d,%d)", p, q)
	}
}

func TestFitARMAErrors(t *testing.T) {
	if _, err := FitARMA([]float64{1, 2, 3}, 1, 1); err == nil {
		t.Fatal("short series accepted")
	}
	if _, err := FitARMA(make([]float64, 100), 0, 0); err == nil {
		t.Fatal("order (0,0) accepted")
	}
	if _, err := FitARMA(make([]float64, 100), -1, 1); err == nil {
		t.Fatal("negative order accepted")
	}
}

func TestARMAPredictWithoutResiduals(t *testing.T) {
	m := &ARMAModel{Phi: []float64{0.5}, Theta: []float64{0.3}, Mean: 10}
	// No residual history: MA term contributes nothing.
	got := m.Predict([]float64{14}, nil)
	if math.Abs(got-12) > 1e-12 {
		t.Fatalf("Predict = %v, want 12", got)
	}
	got = m.Predict([]float64{14}, []float64{2})
	if math.Abs(got-12.6) > 1e-12 {
		t.Fatalf("Predict with residual = %v, want 12.6", got)
	}
}

func TestFitACDRecovers(t *testing.T) {
	// Simulate ACD(1,1) durations and refit.
	rng := rand.New(rand.NewSource(4))
	const (
		omega, alpha, beta = 0.2, 0.15, 0.7
	)
	n := 30000
	xs := make([]float64, n)
	psi := omega / (1 - alpha - beta)
	for i := 0; i < n; i++ {
		xs[i] = psi * rng.ExpFloat64()
		psi = omega + alpha*xs[i] + beta*psi
	}
	m, err := FitACD(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Alpha-alpha) > 0.08 {
		t.Fatalf("alpha = %v, want ~%v", m.Alpha, alpha)
	}
	if math.Abs(m.Beta-beta) > 0.15 {
		t.Fatalf("beta = %v, want ~%v", m.Beta, beta)
	}
	if m.Iterations == 0 {
		t.Fatal("no optimizer work recorded")
	}
	// Filter produces positive conditional means tracking the data scale.
	psis := m.Filter(xs[:1000])
	for i, p := range psis {
		if p <= 0 {
			t.Fatalf("psi[%d] = %v", i, p)
		}
	}
	if m.Predict(1, 1) <= 0 {
		t.Fatal("non-positive prediction")
	}
}

func TestFitACDErrors(t *testing.T) {
	if _, err := FitACD([]float64{1, 2}); err == nil {
		t.Fatal("short series accepted")
	}
	neg := make([]float64, 100)
	neg[50] = -1
	if _, err := FitACD(neg); err == nil {
		t.Fatal("negative durations accepted")
	}
	if _, err := FitACD(make([]float64, 100)); err == nil {
		t.Fatal("all-zero durations accepted")
	}
}

// TestFitSpeedClaim reproduces the paper's modelling-choice argument:
// fitting AR(p) by Levinson-Durbin must be far cheaper than ARMA
// (Hannan-Rissanen) and ACD (MLE) on the same data.
func TestFitSpeedClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 100000
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = 0.5*xs[i-1] + math.Abs(rng.NormFloat64())
	}
	// Each fit's time is the fastest of five runs: a single wall-clock
	// reading can absorb a stall of the host, and the minimum is the
	// reading least affected by one.
	timeIt := func(fit func()) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			fit()
			best = min(best, time.Since(start))
		}
		return best
	}
	arTime := timeIt(func() {
		if _, err := FitAIC(xs, 8); err != nil {
			t.Fatal(err)
		}
	})
	armaTime := timeIt(func() {
		if _, err := FitARMA(xs, 2, 2); err != nil {
			t.Fatal(err)
		}
	})
	acdTime := timeIt(func() {
		if _, err := FitACD(xs); err != nil {
			t.Fatal(err)
		}
	})
	// The paper's claim, conservatively: AR at least 2x cheaper than both.
	if arTime*2 > armaTime {
		t.Fatalf("AR (%v) not clearly cheaper than ARMA (%v)", arTime, armaTime)
	}
	if arTime*2 > acdTime {
		t.Fatalf("AR (%v) not clearly cheaper than ACD (%v)", arTime, acdTime)
	}
	t.Logf("fit times on %d samples: AR %v, ARMA %v, ACD %v", n, arTime, armaTime, acdTime)
}
