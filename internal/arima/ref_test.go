package arima

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// refFitAIC is the reference batch fitter: FitAIC as it was when every
// order's coefficients were kept by an allocating recursion
// (refLevinsonDurbinAll) and the AIC loop ran over them afterwards.
func refFitAIC(xs []float64, maxOrder int) (*Model, error) {
	if maxOrder < 1 {
		return nil, fmt.Errorf("arima: maxOrder %d < 1", maxOrder)
	}
	if len(xs) < 3 {
		return nil, ErrTooShort
	}
	if maxOrder > len(xs)-2 {
		maxOrder = len(xs) - 2
	}
	cov := stats.Autocovariance(xs, maxOrder)
	allCoeffs, allNoise, err := refLevinsonDurbinAll(cov, maxOrder)
	if err != nil {
		return nil, err
	}
	n := float64(len(xs))
	bestP := 1
	bestAIC := math.Inf(1)
	for p := 1; p <= maxOrder; p++ {
		a := aic(allNoise[p], n, p)
		if a < bestAIC {
			bestAIC = a
			bestP = p
		}
	}
	return &Model{
		Coeffs:   allCoeffs[bestP],
		Mean:     stats.Mean(xs),
		NoiseVar: allNoise[bestP],
		AIC:      bestAIC,
		N:        len(xs),
	}, nil
}

// refFit is the reference exact-order fit: AR(p) with no order search.
func refFit(xs []float64, p int) (*Model, error) {
	if p < 0 {
		return nil, fmt.Errorf("arima: negative order %d", p)
	}
	if len(xs) < p+2 {
		return nil, ErrTooShort
	}
	cov := stats.Autocovariance(xs, p)
	coeffs, noise, err := refLevinsonDurbinAll(cov, p)
	if err != nil {
		return nil, err
	}
	return &Model{
		Coeffs:   coeffs[p],
		Mean:     stats.Mean(xs),
		NoiseVar: noise[p],
		AIC:      aic(noise[p], float64(len(xs)), p),
		N:        len(xs),
	}, nil
}

// refLevinsonDurbinAll runs the Levinson-Durbin recursion returning the
// coefficient vector and innovation variance for every order 0..p.
func refLevinsonDurbinAll(cov []float64, p int) ([][]float64, []float64, error) {
	if len(cov) < p+1 {
		return nil, nil, fmt.Errorf("arima: need %d autocovariances, have %d", p+1, len(cov))
	}
	if cov[0] <= 0 {
		return nil, nil, errors.New("arima: zero-variance series")
	}
	coeffs := make([][]float64, p+1)
	noise := make([]float64, p+1)
	noise[0] = cov[0]
	prev := make([]float64, 0, p)
	for k := 1; k <= p; k++ {
		acc := cov[k]
		for j := 1; j < k; j++ {
			acc -= prev[j-1] * cov[k-j]
		}
		if noise[k-1] == 0 {
			coeffs[k] = append([]float64(nil), prev...)
			coeffs[k] = append(coeffs[k], 0)
			noise[k] = 0
			prev = coeffs[k]
			continue
		}
		reflection := acc / noise[k-1]
		cur := make([]float64, k)
		for j := 1; j < k; j++ {
			cur[j-1] = prev[j-1] - reflection*prev[k-1-j]
		}
		cur[k-1] = reflection
		noise[k] = noise[k-1] * (1 - reflection*reflection)
		if noise[k] < 0 {
			noise[k] = 0
		}
		coeffs[k] = cur
		prev = cur
	}
	return coeffs, noise, nil
}

// refRefit is the reference OnlineAR.Refit: its own inline
// Levinson-Durbin recursion and AIC selection over the fitter's buffers.
func refRefit(o *OnlineAR) bool {
	maxP := 0
	for k := 1; k <= o.maxOrder; k++ {
		if o.wk[k] < minEffectiveWeight {
			break
		}
		maxP = k
	}
	if maxP == 0 || o.sumW <= 0 {
		return o.fitted
	}
	mean := o.sumX / o.sumW
	for k := 0; k <= maxP; k++ {
		o.cov[k] = o.cross[k]/o.wk[k] - mean*mean
	}
	if o.cov[0] <= 0 {
		return o.fitted
	}
	nEff := o.wk[0]
	noise := o.cov[0]
	bestAIC := math.Inf(1)
	bestOrder := 0
	prev := o.prev[:0]
	for k := 1; k <= maxP; k++ {
		acc := o.cov[k]
		for j := 1; j < k; j++ {
			acc -= prev[j-1] * o.cov[k-j]
		}
		cur := o.cur[:k]
		if noise == 0 {
			copy(cur, prev)
			cur[k-1] = 0
		} else {
			refl := acc / noise
			for j := 1; j < k; j++ {
				cur[j-1] = prev[j-1] - refl*prev[k-1-j]
			}
			cur[k-1] = refl
			noise *= 1 - refl*refl
			if noise < 0 {
				noise = 0
			}
		}
		if a := aic(noise, nEff, k); a < bestAIC {
			bestAIC = a
			bestOrder = k
			copy(o.coeffsBuf[:k], cur)
			o.mean = mean
			o.noise = noise
		}
		o.prev, o.cur = o.cur, o.prev
		prev = o.prev[:k]
	}
	if bestOrder == 0 {
		return o.fitted
	}
	o.order = bestOrder
	o.coeffs = o.coeffsBuf[:bestOrder]
	o.fitted = true
	return true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkFitAIC fails t unless FitAIC and the reference agree bit for bit:
// the same error, or the same order, coefficients, mean, noise variance,
// AIC and sample size.
func checkFitAIC(t *testing.T, xs []float64, maxOrder int) {
	t.Helper()
	got, gerr := FitAIC(xs, maxOrder)
	want, werr := refFitAIC(xs, maxOrder)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("FitAIC(%v, %d): error %v, reference %v", xs, maxOrder, gerr, werr)
	}
	if gerr != nil {
		return
	}
	if !sameFloats(got.Coeffs, want.Coeffs) || !sameBits(got.Mean, want.Mean) ||
		!sameBits(got.NoiseVar, want.NoiseVar) || !sameBits(got.AIC, want.AIC) || got.N != want.N {
		t.Fatalf("FitAIC(%v, %d) = %+v, reference %+v", xs, maxOrder, got, want)
	}
}

// checkRefit feeds xs into two fitters, refitting both every `every`
// observations (the new one through Refit, the other through refRefit),
// and fails t unless their states and orders stay bit-identical.
func checkRefit(t *testing.T, xs []float64, maxOrder int, decay float64, every int) {
	t.Helper()
	got, want := NewOnlineAR(maxOrder, decay), NewOnlineAR(maxOrder, decay)
	for i, x := range xs {
		got.Observe(x)
		want.Observe(x)
		if (i+1)%every != 0 && i != len(xs)-1 {
			continue
		}
		g, w := got.Refit(), refRefit(want)
		gs, ws := got.State(), want.State()
		if g != w || fittedOrder(got) != fittedOrder(want) || gs.Fitted != ws.Fitted ||
			!sameFloats(gs.Coeffs, ws.Coeffs) || !sameBits(gs.Mean, ws.Mean) || !sameBits(gs.Noise, ws.Noise) {
			t.Fatalf("after %d observations (order %d, decay %g): Refit %v %+v, reference %v %+v",
				i+1, maxOrder, decay, g, gs, w, ws)
		}
	}
}

// diffSeries draws one differential case: a random, constant or
// periodic series. A periodic series is perfectly predictable once the
// order reaches its period, so the recursion's innovation variance
// reaches zero part-way up and the zero-noise branch runs for the rest.
func diffSeries(rng *rand.Rand) []float64 {
	xs := make([]float64, 3+rng.Intn(300))
	switch rng.Intn(4) {
	case 0: // constant
		c := rng.NormFloat64()
		for i := range xs {
			xs[i] = c
		}
	case 1: // periodic, period 2..5
		period := 2 + rng.Intn(4)
		for i := range xs {
			xs[i] = float64(i%period) * 1.5
		}
	case 2: // small integers: ties and near-degenerate covariances
		for i := range xs {
			xs[i] = float64(rng.Intn(3))
		}
	default: // AR(2) around a random mean
		a1, a2 := rng.Float64()*1.4-0.7, rng.Float64()*0.6-0.3
		mu := rng.Float64() * 100
		x1, x2 := mu, mu
		for i := range xs {
			x := mu + a1*(x1-mu) + a2*(x2-mu) + rng.NormFloat64()
			xs[i], x1, x2 = x, x, x1
		}
	}
	return xs
}

// TestFitAICMatchesReference holds FitAIC and OnlineAR.Refit, which now
// share one recursion, to their separate implementations bit for bit.
func TestFitAICMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for c := 0; c < 3000; c++ {
		xs := diffSeries(rng)
		checkFitAIC(t, xs, 1+rng.Intn(20))
		if c%10 == 0 {
			decay := 1.0
			if rng.Intn(2) == 0 {
				decay = 0.9 + rng.Float64()*0.1
			}
			checkRefit(t, xs, 1+rng.Intn(16), decay, 1+rng.Intn(40))
		}
	}
	// Non-finite input: no order reaches a finite AIC.
	checkFitAIC(t, []float64{1e200, -1e200, 1e200, 3}, 2)
	checkFitAIC(t, []float64{1, math.NaN(), 2, 3}, 2)
	checkFitAIC(t, []float64{1, math.Inf(1), 2, 3}, 2)
}

// FuzzFitAICMatchesReference decodes a series from the input (one small
// integer per byte, or raw float64 bits, which reach NaN and overflow)
// and holds FitAIC and OnlineAR.Refit to the reference copies.
func FuzzFitAICMatchesReference(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 1, 2, 3, 2, 1}, uint8(4), false)
	f.Add([]byte{7, 7, 7, 7, 7, 7}, uint8(2), false)
	f.Add([]byte{0, 255, 0, 255, 0, 255, 0, 255}, uint8(6), false)
	f.Add(make([]byte, 64), uint8(3), true)
	f.Fuzz(func(t *testing.T, data []byte, maxOrder uint8, raw bool) {
		var xs []float64
		if raw {
			for ; len(data) >= 8; data = data[8:] {
				xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		} else {
			for _, b := range data {
				xs = append(xs, float64(int8(b)))
			}
		}
		checkFitAIC(t, xs, int(maxOrder%32))
		if maxOrder%32 > 0 {
			checkRefit(t, xs, int(maxOrder%32), 0.99, 1+int(maxOrder)%7)
		}
	})
}
