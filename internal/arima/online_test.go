package arima

import (
	"math"
	"math/rand"
	"testing"
)

// synthAR2 generates an AR(2) series with the given coefficients around
// mean mu.
func synthAR2(rng *rand.Rand, n int, a1, a2, mu, sigma float64) []float64 {
	xs := make([]float64, n)
	x1, x2 := mu, mu
	for i := range xs {
		x := mu + a1*(x1-mu) + a2*(x2-mu) + rng.NormFloat64()*sigma
		xs[i] = x
		x2, x1 = x1, x
	}
	return xs
}

func TestOnlineARRecoversAR2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := synthAR2(rng, 20000, 0.6, -0.3, 5.0, 0.5)
	o := NewOnlineAR(8, 1) // no forgetting: should converge to batch fit
	for _, x := range xs {
		o.Observe(x)
	}
	if !o.Refit() || !o.Ready() {
		t.Fatal("refit failed on a healthy AR(2) stream")
	}
	if got := o.Mean(); math.Abs(got-5.0) > 0.2 {
		t.Fatalf("mean = %g, want ~5.0", got)
	}
	if fittedOrder(o) < 2 {
		t.Fatalf("order = %d, want >= 2", fittedOrder(o))
	}
	// The first two coefficients should be near the generator's.
	batch, err := FitAIC(xs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []float64{0.6, -0.3} {
		onl := o.coeffs[i]
		if math.Abs(onl-want) > 0.1 {
			t.Errorf("coeff[%d] = %g, want ~%g (batch fit: %g)", i, onl, want, batch.Coeffs[i])
		}
	}
}

func TestOnlineARPredictTracksModelPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := synthAR2(rng, 8000, 0.5, 0.2, 1.0, 0.3)
	o := NewOnlineAR(4, 1)
	for _, x := range xs {
		o.Observe(x)
	}
	if !o.Refit() {
		t.Fatal("refit failed")
	}
	// A Model built from the online fitter's own parameters must agree
	// with the fitter's Predict exactly.
	m := &Model{Coeffs: append([]float64(nil), o.coeffs...), Mean: o.mean}
	want := m.Predict(xs)
	if got := o.Predict(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Predict = %g, model predict = %g", got, want)
	}
}

func TestOnlineARDeterministicAcrossReplays(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := synthAR2(rng, 5000, 0.4, 0.1, 2.0, 1.0)
	run := func() (float64, int, float64) {
		o := NewOnlineAR(8, 0.999)
		for i, x := range xs {
			o.Observe(x)
			if i%64 == 63 {
				o.Refit()
			}
		}
		return o.Predict(), fittedOrder(o), o.noise
	}
	p1, o1, n1 := run()
	p2, o2, n2 := run()
	if p1 != p2 || o1 != o2 || n1 != n2 {
		t.Fatalf("replay diverged: (%v,%d,%v) vs (%v,%d,%v)", p1, o1, n1, p2, o2, n2)
	}
}

func TestOnlineARNotReadyFallsBackToMean(t *testing.T) {
	o := NewOnlineAR(8, 1)
	if o.Predict() != 0 {
		t.Fatal("empty fitter should predict 0")
	}
	o.Observe(3)
	o.Observe(5)
	if got := o.Predict(); math.Abs(got-4) > 1e-12 {
		t.Fatalf("unfitted Predict = %g, want running mean 4", got)
	}
	// Too few lags with weight: refit keeps it unfitted but doesn't fail.
	o.Refit()
	if o.Ready() && fittedOrder(o) > 2 {
		t.Fatalf("order %d from 2 observations", fittedOrder(o))
	}
}

func TestOnlineARConstantStreamStaysSane(t *testing.T) {
	o := NewOnlineAR(8, 1)
	for i := 0; i < 1000; i++ {
		o.Observe(7)
	}
	o.Refit()
	if got := o.Predict(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("constant stream predicts %g, want 7", got)
	}
}

func TestOnlineARStateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := synthAR2(rng, 4000, 0.6, -0.2, 3.0, 0.4)
	o := NewOnlineAR(6, 0.9995)
	for i, x := range xs {
		o.Observe(x)
		if i%128 == 127 {
			o.Refit()
		}
	}
	r, err := RestoreOnlineAR(o.State())
	if err != nil {
		t.Fatal(err)
	}
	if r.Predict() != o.Predict() || fittedOrder(r) != fittedOrder(o) || r.n != o.n {
		t.Fatal("restored fitter diverged from original")
	}
	// Continued observation streams must stay identical.
	for i, x := range xs[:500] {
		o.Observe(x)
		r.Observe(x)
		if i%64 == 63 {
			o.Refit()
			r.Refit()
		}
	}
	if r.Predict() != o.Predict() {
		t.Fatal("restored fitter diverged after further observations")
	}

	// Invalid states are rejected.
	for _, mutate := range []func(*OnlineARState){
		func(st *OnlineARState) { st.MaxOrder = 0 },
		func(st *OnlineARState) { st.Decay = 0 },
		func(st *OnlineARState) { st.Ring = st.Ring[:1] },
		func(st *OnlineARState) { st.Pos = st.MaxOrder },
		func(st *OnlineARState) { st.Coeffs = make([]float64, st.MaxOrder+1) },
	} {
		st := o.State()
		mutate(&st)
		if _, err := RestoreOnlineAR(st); err == nil {
			t.Fatalf("restore accepted invalid state %+v", st)
		}
	}
}

func TestOnlineARHotPathAllocs(t *testing.T) {
	o := NewOnlineAR(8, 0.999)
	for i := 0; i < 100; i++ {
		o.Observe(float64(i % 13))
	}
	o.Refit()
	allocs := testing.AllocsPerRun(1000, func() {
		o.Observe(1.5)
		_ = o.Predict()
	})
	if allocs != 0 {
		t.Fatalf("Observe+Predict allocated %.1f/op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() { o.Refit() })
	if allocs != 0 {
		t.Fatalf("Refit allocated %.1f/op, want 0", allocs)
	}
}

// fittedOrder returns o's fitted order, 0 before the first successful
// Refit.
func fittedOrder(o *OnlineAR) int {
	if !o.fitted {
		return 0
	}
	return o.order
}
