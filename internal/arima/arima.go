// Package arima implements autoregressive AR(p) time-series models, the
// statistical tool behind the paper's Autoregression scrub-scheduling
// policy (Section V-B1). Models are fitted with the Yule-Walker equations
// solved by Levinson-Durbin recursion, and the order p is selected with
// Akaike's Information Criterion exactly as the paper describes. The paper
// notes that richer models (ACD, ARIMA) were too slow to fit at I/O rates;
// AR(p) via Levinson-Durbin is O(n + p^2) and is what we provide.
package arima

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/stats"
)

// ErrTooShort is returned when the sample is too small to fit the
// requested order.
var ErrTooShort = errors.New("arima: series too short for requested order")

// Model is a fitted AR(p) model:
//
//	X_t = mu + sum_i a_i (X_{t-i} - mu) + eps_t
type Model struct {
	// Coeffs are the autoregressive coefficients a_1..a_p.
	Coeffs []float64
	// Mean is the process mean mu.
	Mean float64
	// NoiseVar is the innovation (white noise) variance.
	NoiseVar float64
	// AIC is Akaike's Information Criterion for this fit.
	AIC float64
	// N is the number of observations the model was fitted on.
	N int
}

// Order returns p, the autoregressive order.
func (m *Model) Order() int { return len(m.Coeffs) }

// Predict returns the one-step-ahead forecast given the most recent
// observations, ordered oldest first (history[len-1] is X_{t-1}). When
// fewer than p observations are supplied the missing lags are taken at the
// process mean.
func (m *Model) Predict(history []float64) float64 {
	pred := m.Mean
	p := len(m.Coeffs)
	for i := 1; i <= p; i++ {
		idx := len(history) - i
		if idx < 0 {
			continue // X_{t-i} - mu treated as 0
		}
		pred += m.Coeffs[i-1] * (history[idx] - m.Mean)
	}
	return pred
}

// String renders the model in a compact human-readable form.
func (m *Model) String() string {
	return fmt.Sprintf("AR(%d){mu=%.4g sigma2=%.4g aic=%.4g}", m.Order(), m.Mean, m.NoiseVar, m.AIC)
}

// FitAIC fits AR(p) models for p in [1, maxOrder] and returns the one with
// the lowest AIC, as the paper's policy does ("We estimate the order p
// using Akaike's Information Criterion").
func FitAIC(xs []float64, maxOrder int) (*Model, error) {
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
	if cov[0] <= 0 {
		return nil, errors.New("arima: zero-variance series")
	}
	buf := make([]float64, 3*maxOrder)
	best := buf[:maxOrder:maxOrder]
	order, noise, bestAIC := levinsonDurbin(cov, float64(len(xs)), best, buf[maxOrder:2*maxOrder], buf[2*maxOrder:])
	if order == 0 {
		// No order reached a finite AIC (NaN or overflowing input):
		// report AR(1), the recursion's first step.
		r := cov[1] / cov[0]
		noise = cov[0] * (1 - r*r)
		if noise < 0 {
			noise = 0
		}
		order, best[0] = 1, r
	}
	return &Model{
		Coeffs:   best[:order:order],
		Mean:     stats.Mean(xs),
		NoiseVar: noise,
		AIC:      bestAIC,
		N:        len(xs),
	}, nil
}

func aic(noiseVar, n float64, p int) float64 {
	if noiseVar <= 0 {
		noiseVar = 1e-300
	}
	return n*math.Log(noiseVar) + 2*float64(p+1)
}

// levinsonDurbin solves the Yule-Walker equations for every order
// 1..len(cov)-1 in one Levinson-Durbin recursion over the
// autocovariances cov (cov[0] > 0) of a sample of effective size n, and
// keeps the order with the lowest AIC: its coefficients go to
// best[:order]. prev and cur are scratch; best, prev and cur each hold
// len(cov)-1 values, and nothing is allocated. order is 0, and best
// untouched, when no order's AIC is below +Inf.
func levinsonDurbin(cov []float64, n float64, best, prev, cur []float64) (order int, noise, bestAIC float64) {
	v := cov[0]
	bestAIC = math.Inf(1)
	// Once v reaches zero the series is perfectly predictable: every
	// higher order keeps v at zero and scores a worse AIC, so stop.
	for k := 1; k < len(cov) && v != 0; k++ {
		acc := cov[k]
		for j := 1; j < k; j++ {
			acc -= prev[j-1] * cov[k-j]
		}
		refl := acc / v
		for j := 1; j < k; j++ {
			cur[j-1] = prev[j-1] - refl*prev[k-1-j]
		}
		cur[k-1] = refl
		v *= 1 - refl*refl
		if v < 0 {
			v = 0
		}
		if a := aic(v, n, k); a < bestAIC {
			order, noise, bestAIC = k, v, a
			copy(best[:k], cur[:k])
		}
		// This order's coefficients become the next order's prefix.
		prev, cur = cur, prev
	}
	return order, noise, bestAIC
}

// Predictor is an online one-step-ahead AR predictor with periodic
// refitting, suitable for the streaming setting of the AR scheduling
// policy: observations (inter-arrival durations) arrive one at a time and
// each PredictNext call forecasts the upcoming duration.
type Predictor struct {
	maxOrder int
	refitEvm int // refit every this many observations
	window   int // history window used for fitting

	history []float64
	model   *Model
	sinceFt int
}

// NewPredictor returns a streaming predictor. maxOrder bounds the AR order
// (AIC selects within it), window bounds the history used for fitting, and
// refitEvery controls how often the model is refitted. Values <= 0 get
// sensible defaults (order 8, window 4096, refit every 256).
func NewPredictor(maxOrder, window, refitEvery int) *Predictor {
	if maxOrder <= 0 {
		maxOrder = 8
	}
	if window <= 0 {
		window = 4096
	}
	if refitEvery <= 0 {
		refitEvery = 256
	}
	return &Predictor{maxOrder: maxOrder, refitEvm: refitEvery, window: window}
}

// Observe appends an observation.
func (p *Predictor) Observe(x float64) {
	p.history = append(p.history, x)
	if len(p.history) > 2*p.window {
		// Slide the window, keeping the most recent observations.
		keep := p.history[len(p.history)-p.window:]
		p.history = append(p.history[:0], keep...)
	}
	p.sinceFt++
}

// Ready reports whether enough observations have accumulated to fit.
func (p *Predictor) Ready() bool { return len(p.history) >= p.maxOrder+8 }

// PredictNext forecasts the next observation. Before the predictor is
// Ready it returns the running mean.
func (p *Predictor) PredictNext() float64 {
	if !p.Ready() {
		return stats.Mean(p.history)
	}
	if p.model == nil || p.sinceFt >= p.refitEvm {
		win := p.history
		if len(win) > p.window {
			win = win[len(win)-p.window:]
		}
		if m, err := FitAIC(win, p.maxOrder); err == nil {
			p.model = m
		}
		p.sinceFt = 0
	}
	if p.model == nil {
		return stats.Mean(p.history)
	}
	return p.model.Predict(p.history)
}
