package arima

import "fmt"

// This file is the incremental counterpart of Predictor: where Predictor
// keeps a window of raw observations and refits with FitAIC (O(window)
// per refit), OnlineAR folds each observation into exponentially-decayed
// autocovariance sums and refits by running Levinson-Durbin directly on
// those sums — O(maxOrder) per observation, O(maxOrder^2) per refit,
// independent of how much history the device has accumulated. That is
// what lets a daemon keep tens of thousands of per-device AR fits fresh
// without ever re-reading a history buffer. Observe and Predict are
// allocation-free; Refit reuses preallocated recursion buffers.

// OnlineAR is a streaming AR(p) fitter over decayed autocovariances.
// It is not safe for concurrent use; the daemon serializes access per
// device shard.
type OnlineAR struct {
	maxOrder int
	decay    float64

	ring []float64 // last maxOrder observations; ring[pos-1] is newest
	pos  int       // next write index
	n    int64     // observations seen

	sumW  float64   // decayed weight mass
	sumX  float64   // decayed sum of x
	cross []float64 // cross[k] = decayed sum of x_t * x_{t-k}, k = 0..maxOrder
	wk    []float64 // decayed weight mass contributing to cross[k]

	// Fitted model (valid when fitted). coeffs aliases coeffsBuf.
	fitted bool
	coeffs []float64
	mean   float64
	noise  float64
	order  int //scrublint:transient rederived from len(Coeffs) by RestoreOnlineAR

	// Preallocated recursion scratch.
	cov       []float64 //scrublint:transient Levinson-Durbin scratch, recomputed by the next fit
	prev, cur []float64 //scrublint:transient Levinson-Durbin scratch, recomputed by the next fit
	coeffsBuf []float64 //scrublint:transient backing array of coeffs, captured as Coeffs
}

// minEffectiveWeight is the decayed sample mass a lag must have
// accumulated before it participates in a fit.
const minEffectiveWeight = 4.0

// NewOnlineAR returns a streaming fitter. maxOrder bounds the AIC-selected
// AR order (<= 0 selects 8; capped at 64) and decay is the per-observation
// exponential forgetting factor in (0, 1] (<= 0 selects 0.999; 1 never
// forgets).
func NewOnlineAR(maxOrder int, decay float64) *OnlineAR {
	if maxOrder <= 0 {
		maxOrder = 8
	}
	if maxOrder > 64 {
		maxOrder = 64
	}
	if decay <= 0 {
		decay = 0.999
	}
	if decay > 1 {
		decay = 1
	}
	return &OnlineAR{
		maxOrder:  maxOrder,
		decay:     decay,
		ring:      make([]float64, maxOrder),
		cross:     make([]float64, maxOrder+1),
		wk:        make([]float64, maxOrder+1),
		cov:       make([]float64, maxOrder+1),
		prev:      make([]float64, maxOrder),
		cur:       make([]float64, maxOrder),
		coeffsBuf: make([]float64, maxOrder),
	}
}

// MaxOrder returns the configured order bound.
func (o *OnlineAR) MaxOrder() int { return o.maxOrder }

// Count returns the number of observations folded in.
func (o *OnlineAR) Count() int64 { return o.n }

// Observe folds one observation into the decayed sums.
//
//scrub:hotpath
func (o *OnlineAR) Observe(x float64) {
	d := o.decay
	o.sumW = o.sumW*d + 1
	o.sumX = o.sumX*d + x
	lags := o.maxOrder
	if o.n < int64(lags) {
		lags = int(o.n)
	}
	for k := 0; k <= o.maxOrder; k++ {
		o.cross[k] *= d
		o.wk[k] *= d
	}
	o.cross[0] += x * x
	o.wk[0]++
	for k := 1; k <= lags; k++ {
		// x_{t-k} sits k slots behind the write position in the ring.
		i := o.pos - k
		if i < 0 {
			i += o.maxOrder
		}
		o.cross[k] += x * o.ring[i]
		o.wk[k]++
	}
	o.ring[o.pos] = x
	o.pos++
	if o.pos == o.maxOrder {
		o.pos = 0
	}
	o.n++
}

// Mean returns the decayed mean estimate (0 before any observation).
func (o *OnlineAR) Mean() float64 {
	if o.sumW == 0 {
		return 0
	}
	return o.sumX / o.sumW
}

// Ready reports whether a model has been fitted.
func (o *OnlineAR) Ready() bool { return o.fitted }

// Order returns the fitted order (0 before the first successful Refit).
func (o *OnlineAR) Order() int {
	if !o.fitted {
		return 0
	}
	return o.order
}

// NoiseVar returns the fitted innovation variance (0 before a fit).
func (o *OnlineAR) NoiseVar() float64 {
	if !o.fitted {
		return 0
	}
	return o.noise
}

// Refit re-estimates the AR coefficients from the current decayed
// autocovariances: Levinson-Durbin over every order the sample supports,
// AIC selection among them, exactly as FitAIC does over a raw series.
// It reports whether a model is available afterwards (a failed refit
// keeps any previous fit). No heap allocation: the recursion runs in
// buffers owned by the fitter.
func (o *OnlineAR) Refit() bool {
	// Orders the decayed sample can support: lag k needs weight mass.
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
		return o.fitted // zero-variance stream: nothing to fit
	}

	order, noise, _ := levinsonDurbin(o.cov[:maxP+1], o.wk[0], o.coeffsBuf, o.prev, o.cur)
	if order == 0 {
		return o.fitted
	}
	o.order = order
	o.coeffs = o.coeffsBuf[:order]
	o.mean, o.noise = mean, noise
	o.fitted = true
	return true
}

// Predict forecasts the next observation from the fitted model and the
// ring of recent observations. Before the first successful Refit it
// returns the decayed mean.
//
//scrub:hotpath
func (o *OnlineAR) Predict() float64 {
	if !o.fitted {
		return o.Mean()
	}
	pred := o.mean
	p := o.order
	if int64(p) > o.n {
		p = int(o.n)
	}
	for i := 1; i <= p; i++ {
		idx := o.pos - i
		if idx < 0 {
			idx += o.maxOrder
		}
		pred += o.coeffs[i-1] * (o.ring[idx] - o.mean)
	}
	return pred
}

// OnlineARState is the serializable snapshot of an OnlineAR.
//
//scrublint:snapshot OnlineAR
type OnlineARState struct {
	MaxOrder int
	Decay    float64
	Ring     []float64
	Pos      int
	N        int64
	SumW     float64
	SumX     float64
	Cross    []float64
	Wk       []float64
	Fitted   bool
	Coeffs   []float64
	Mean     float64
	Noise    float64
}

// State copies the fitter into a serializable snapshot.
func (o *OnlineAR) State() OnlineARState {
	st := OnlineARState{
		MaxOrder: o.maxOrder,
		Decay:    o.decay,
		Ring:     append([]float64(nil), o.ring...),
		Pos:      o.pos,
		N:        o.n,
		SumW:     o.sumW,
		SumX:     o.sumX,
		Cross:    append([]float64(nil), o.cross...),
		Wk:       append([]float64(nil), o.wk...),
		Fitted:   o.fitted,
		Mean:     o.mean,
		Noise:    o.noise,
	}
	if o.fitted {
		st.Coeffs = append([]float64(nil), o.coeffs...)
	}
	return st
}

// RestoreOnlineAR rebuilds a fitter from a snapshot, validating shape
// invariants so a corrupted checkpoint is rejected rather than trusted.
func RestoreOnlineAR(st OnlineARState) (*OnlineAR, error) {
	if st.MaxOrder < 1 || st.MaxOrder > 64 {
		return nil, fmt.Errorf("arima: online state order %d outside [1,64]", st.MaxOrder)
	}
	if st.Decay <= 0 || st.Decay > 1 {
		return nil, fmt.Errorf("arima: online state decay %g outside (0,1]", st.Decay)
	}
	if len(st.Ring) != st.MaxOrder ||
		len(st.Cross) != st.MaxOrder+1 || len(st.Wk) != st.MaxOrder+1 {
		return nil, fmt.Errorf("arima: online state shape mismatch for order %d", st.MaxOrder)
	}
	if st.Pos < 0 || st.Pos >= st.MaxOrder || st.N < 0 {
		return nil, fmt.Errorf("arima: online state position %d/count %d invalid", st.Pos, st.N)
	}
	if st.Fitted && (len(st.Coeffs) < 1 || len(st.Coeffs) > st.MaxOrder) {
		return nil, fmt.Errorf("arima: online state fitted with %d coefficients (max %d)", len(st.Coeffs), st.MaxOrder)
	}
	o := NewOnlineAR(st.MaxOrder, st.Decay)
	copy(o.ring, st.Ring)
	o.pos = st.Pos
	o.n = st.N
	o.sumW, o.sumX = st.SumW, st.SumX
	copy(o.cross, st.Cross)
	copy(o.wk, st.Wk)
	o.fitted = st.Fitted
	if st.Fitted {
		o.order = len(st.Coeffs)
		copy(o.coeffsBuf, st.Coeffs)
		o.coeffs = o.coeffsBuf[:o.order]
		o.mean, o.noise = st.Mean, st.Noise
	}
	return o, nil
}
