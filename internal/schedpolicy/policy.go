// Package schedpolicy implements the scrub-request scheduling policies of
// the paper's Section V-B: Waiting (fire after the device has been idle
// for a threshold t), Autoregression (fire at idle start when an AR(p)
// prediction of the interval length exceeds a threshold c), and their
// combination. Policies attach to a block-device queue and drive a
// Scrubber: once firing starts it continues back-to-back until a
// foreground request arrives — the stopping criterion the paper shows is
// statistically optimal under decreasing hazard rates.
package schedpolicy

import (
	"fmt"
	"time"

	"repro/internal/arima"
	"repro/internal/blockdev"
	"repro/internal/obs"
	"repro/internal/scrub"
	"repro/internal/sim"
)

// Policy drives a scrubber from queue idleness events.
type Policy interface {
	// Attach wires the policy to a queue and scrubber. Call once.
	Attach(s *sim.Simulator, q *blockdev.Queue, sc *scrub.Scrubber)
	// Name identifies the policy.
	Name() string
	// Instrument attaches the policy's decision counters to a metrics
	// registry. A nil reg is a no-op.
	Instrument(reg *obs.Registry)
}

// Waiting fires after the device has stayed idle for Threshold, then keeps
// firing until a foreground request arrives. The paper's winning policy.
type Waiting struct {
	Threshold time.Duration //scrublint:transient policy configuration, supplied at construction

	sim   *sim.Simulator  //scrublint:transient wiring, supplied by Attach
	sc    *scrub.Scrubber //scrublint:transient wiring, supplied by Attach
	timer sim.Timer

	// Observability instruments (nil when uninstrumented).
	obsArmed    *obs.Counter
	obsHits     *obs.Counter
	obsDisarmed *obs.Counter
}

var _ Policy = (*Waiting)(nil)

// Name implements Policy.
func (w *Waiting) Name() string { return fmt.Sprintf("waiting(%v)", w.Threshold) }

// Instrument implements Policy: schedpolicy.waiting.armed counts idle
// periods that started the waiting clock, .threshold_hits counts timers
// that ran to the threshold (and fired the scrubber), .disarmed counts
// timers cancelled by a foreground arrival before the threshold.
func (w *Waiting) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	w.obsArmed = reg.Counter("schedpolicy.waiting.armed")
	w.obsHits = reg.Counter("schedpolicy.waiting.threshold_hits")
	w.obsDisarmed = reg.Counter("schedpolicy.waiting.disarmed")
}

// Attach implements Policy.
func (w *Waiting) Attach(s *sim.Simulator, q *blockdev.Queue, sc *scrub.Scrubber) {
	w.sim, w.sc = s, sc
	// The threshold timer carries no per-arming state, so one prebuilt
	// callback serves every arming — which also lets a snapshot re-arm a
	// pending timer by (at, seq) alone.
	w.timer.Init(s, w.fire)
	q.SubscribeIdle(func(now time.Duration) {
		// The device went idle: if the scrubber is mid-burst this is just
		// the gap between its own back-to-back requests; otherwise start
		// the waiting clock.
		if sc.Firing() {
			return
		}
		w.arm()
	})
	q.SubscribeSubmit(func(r *blockdev.Request) {
		if r.Origin != blockdev.Foreground {
			return
		}
		// Foreground arrival: stop scrubbing and cancel any armed timer.
		w.disarm()
		sc.Hold()
	})
}

func (w *Waiting) arm() {
	w.disarm()
	w.obsArmed.Inc()
	w.timer.Arm(w.sim.Now() + w.Threshold)
}

func (w *Waiting) fire() {
	w.obsHits.Inc()
	w.sc.Fire()
}

func (w *Waiting) disarm() {
	if w.timer.Armed() {
		w.timer.Disarm()
		w.obsDisarmed.Inc()
	}
}

// AR predicts the length of the idle interval that just began using an
// AR(p) model over recent inter-arrival durations, and fires immediately
// when the prediction exceeds Threshold.
type AR struct {
	// Threshold is the paper's parameter c.
	Threshold time.Duration
	// MaxOrder bounds the AIC-selected AR order (default 8).
	MaxOrder int
	// Window bounds the fitting history (default 4096).
	Window int
	// RefitEvery controls refit cadence (default 256).
	RefitEvery int

	pred    *arima.Predictor
	lastArr time.Duration
	haveArr bool

	lastPred  float64 // seconds; prediction made at the last idle start
	idleStart time.Duration
	havePred  bool

	// Observability instruments (nil when uninstrumented).
	obsFires   *obs.Counter
	obsHolds   *obs.Counter
	obsOver    *obs.Counter
	obsUnder   *obs.Counter
	obsPredErr *obs.Histogram
}

var _ Policy = (*AR)(nil)

// Name implements Policy.
func (a *AR) Name() string { return fmt.Sprintf("ar(%v)", a.Threshold) }

// Instrument implements Policy: schedpolicy.ar.fires / .holds count
// predictions above / below the threshold at idle starts;
// .over_predictions / .under_predictions and the
// schedpolicy.ar.pred_abs_error histogram compare each prediction with
// the actual idle-interval length once the next foreground request
// arrives.
func (a *AR) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	a.obsFires = reg.Counter("schedpolicy.ar.fires")
	a.obsHolds = reg.Counter("schedpolicy.ar.holds")
	a.obsOver = reg.Counter("schedpolicy.ar.over_predictions")
	a.obsUnder = reg.Counter("schedpolicy.ar.under_predictions")
	a.obsPredErr = reg.Histogram("schedpolicy.ar.pred_abs_error")
}

// scorePrediction compares the prediction made at the last idle start
// against the actual idle-interval length ending now.
func (a *AR) scorePrediction(now time.Duration) {
	if !a.havePred {
		return
	}
	a.havePred = false
	actual := (now - a.idleStart).Seconds()
	if a.lastPred >= actual {
		a.obsOver.Inc()
	} else {
		a.obsUnder.Inc()
	}
	a.obsPredErr.Observe(time.Duration(abs(a.lastPred-actual) * float64(time.Second)))
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Attach implements Policy.
func (a *AR) Attach(s *sim.Simulator, q *blockdev.Queue, sc *scrub.Scrubber) {
	a.pred = arima.NewPredictor(a.MaxOrder, a.Window, a.RefitEvery)
	q.SubscribeSubmit(func(r *blockdev.Request) {
		if r.Origin != blockdev.Foreground {
			return
		}
		sc.Hold()
		now := s.Now()
		a.scorePrediction(now)
		if a.haveArr && now > a.lastArr {
			a.pred.Observe((now - a.lastArr).Seconds())
		}
		a.lastArr = now
		a.haveArr = true
	})
	q.SubscribeIdle(func(now time.Duration) {
		if sc.Firing() {
			return
		}
		p := a.pred.PredictNext()
		a.lastPred, a.idleStart, a.havePred = p, now, true
		if p > a.Threshold.Seconds() {
			a.obsFires.Inc()
			sc.Fire()
		} else {
			a.obsHolds.Inc()
		}
	})
}

// ARWaiting combines the two: wait WaitThreshold of idleness, then fire
// only if the AR prediction for this interval exceeds ARThreshold.
type ARWaiting struct {
	WaitThreshold time.Duration
	ARThreshold   time.Duration
	MaxOrder      int
	Window        int
	RefitEvery    int

	sim     *sim.Simulator
	sc      *scrub.Scrubber
	pred    *arima.Predictor
	timer   sim.Timer
	lastArr time.Duration
	haveArr bool
	// prediction is the AR forecast made when the pending timer was
	// armed; the timer's callback compares it with ARThreshold.
	prediction float64

	// Observability instruments (nil when uninstrumented).
	obsHits  *obs.Counter
	obsFires *obs.Counter
	obsHolds *obs.Counter
}

var _ Policy = (*ARWaiting)(nil)

// Name implements Policy.
func (aw *ARWaiting) Name() string {
	return fmt.Sprintf("ar+waiting(t=%v,c=%v)", aw.WaitThreshold, aw.ARThreshold)
}

// Instrument implements Policy: schedpolicy.arwaiting.threshold_hits
// counts waiting timers that ran to the threshold; .fires / .holds split
// those by whether the AR prediction then cleared its own threshold.
func (aw *ARWaiting) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	aw.obsHits = reg.Counter("schedpolicy.arwaiting.threshold_hits")
	aw.obsFires = reg.Counter("schedpolicy.arwaiting.fires")
	aw.obsHolds = reg.Counter("schedpolicy.arwaiting.holds")
}

// Attach implements Policy.
func (aw *ARWaiting) Attach(s *sim.Simulator, q *blockdev.Queue, sc *scrub.Scrubber) {
	aw.sim, aw.sc = s, sc
	aw.pred = arima.NewPredictor(aw.MaxOrder, aw.Window, aw.RefitEvery)
	aw.timer.Init(s, aw.fire)
	q.SubscribeSubmit(func(r *blockdev.Request) {
		if r.Origin != blockdev.Foreground {
			return
		}
		aw.timer.Disarm()
		sc.Hold()
		now := s.Now()
		if aw.haveArr && now > aw.lastArr {
			aw.pred.Observe((now - aw.lastArr).Seconds())
		}
		aw.lastArr = now
		aw.haveArr = true
	})
	q.SubscribeIdle(func(now time.Duration) {
		if sc.Firing() {
			return
		}
		aw.prediction = aw.pred.PredictNext()
		aw.timer.Arm(s.Now() + aw.WaitThreshold)
	})
}

// fire is the wait timer's body: the idle wait is over, so scrub if the
// prediction made at its arming clears ARThreshold.
func (aw *ARWaiting) fire() {
	aw.obsHits.Inc()
	if aw.prediction > aw.ARThreshold.Seconds() {
		aw.obsFires.Inc()
		aw.sc.Fire()
	} else {
		aw.obsHolds.Inc()
	}
}

// SetThreshold updates the waiting threshold at runtime (online
// re-tuning). An armed timer keeps its original deadline; the new value
// applies from the next idle period.
func (w *Waiting) SetThreshold(t time.Duration) { w.Threshold = t }
