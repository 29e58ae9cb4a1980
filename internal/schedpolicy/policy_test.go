package schedpolicy

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/iosched"
	"repro/internal/replay"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/trace"
)

type rig struct {
	sim *sim.Simulator
	q   *blockdev.Queue
	sc  *scrub.Scrubber
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	q := blockdev.NewQueue(s, d, iosched.NewNOOP())
	alg, err := scrub.NewSequential(d.Sectors())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scrub.New(s, q, scrub.Config{Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{sim: s, q: q, sc: sc}
}

// fgPulse submits one small foreground read at the given time.
func (r *rig) fgPulse(at time.Duration, lba int64) {
	r.sim.At(at, func() {
		r.q.Submit(&blockdev.Request{
			Op: disk.OpRead, LBA: lba, Sectors: 16,
			Class: blockdev.ClassBE, Origin: blockdev.Foreground,
		})
	})
}

func TestWaitingFiresAfterThreshold(t *testing.T) {
	r := newRig(t)
	w := &Waiting{Threshold: 50 * time.Millisecond}
	w.Attach(r.sim, r.q, r.sc)
	// One fg request at t=0, then silence: the scrubber must begin ~50ms
	// after the device goes idle, and keep firing.
	r.fgPulse(0, 0)
	if err := r.sim.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.sc.Stats()
	if st.Requests < 10 {
		t.Fatalf("scrubber fired %d requests, want many", st.Requests)
	}
	if st.FirstFired < 50*time.Millisecond || st.FirstFired > 80*time.Millisecond {
		t.Fatalf("first fire at %v, want ~50ms after idle", st.FirstFired)
	}
}

func TestWaitingHoldsOnForegroundArrival(t *testing.T) {
	r := newRig(t)
	w := &Waiting{Threshold: 20 * time.Millisecond}
	w.Attach(r.sim, r.q, r.sc)
	r.fgPulse(0, 0)
	r.fgPulse(500*time.Millisecond, 1<<20)
	if err := r.sim.RunUntil(490 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !r.sc.Firing() {
		t.Fatal("scrubber should be firing mid-gap")
	}
	if err := r.sim.RunUntil(510 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if r.sc.Firing() {
		t.Fatal("scrubber still firing after foreground arrival")
	}
	// And it resumes after the fg request completes + threshold.
	if err := r.sim.RunUntil(600 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if !r.sc.Firing() {
		t.Fatal("scrubber did not resume after the next idle threshold")
	}
}

func TestWaitingShortGapNoFire(t *testing.T) {
	r := newRig(t)
	w := &Waiting{Threshold: 100 * time.Millisecond}
	w.Attach(r.sim, r.q, r.sc)
	// Foreground requests every 50ms: gaps never reach the threshold.
	for i := 0; i < 20; i++ {
		r.fgPulse(time.Duration(i)*50*time.Millisecond, int64(i)*4096)
	}
	if err := r.sim.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.sc.Stats().Requests; got != 0 {
		t.Fatalf("scrubber fired %d requests under a busy workload", got)
	}
}

func TestWaitingNoCollisionlessStarvation(t *testing.T) {
	// A Waiting policy must not be confused by its own scrub completions:
	// firing continues back-to-back without re-waiting between scrub
	// requests.
	r := newRig(t)
	w := &Waiting{Threshold: 10 * time.Millisecond}
	w.Attach(r.sim, r.q, r.sc)
	r.fgPulse(0, 0)
	if err := r.sim.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.sc.Stats()
	// ~2s of firing at ~4.4ms per 64KB request: expect hundreds.
	if st.Requests < 300 {
		t.Fatalf("only %d scrub requests: policy re-waited between requests", st.Requests)
	}
}

func TestARPolicyLearnsAndFires(t *testing.T) {
	r := newRig(t)
	a := &AR{Threshold: 40 * time.Millisecond, MaxOrder: 4, Window: 512, RefitEvery: 32}
	a.Attach(r.sim, r.q, r.sc)
	// Regular 100ms gaps: the AR prediction converges to ~100ms > 40ms,
	// so the scrubber fires in later gaps.
	for i := 0; i < 100; i++ {
		r.fgPulse(time.Duration(i)*100*time.Millisecond, int64(i)*4096)
	}
	if err := r.sim.RunUntil(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.sc.Stats().Requests == 0 {
		t.Fatal("AR policy never fired on a predictable workload")
	}
}

func TestARPolicyThresholdBlocks(t *testing.T) {
	r := newRig(t)
	a := &AR{Threshold: time.Hour} // absurd threshold: never fire
	a.Attach(r.sim, r.q, r.sc)
	for i := 0; i < 50; i++ {
		r.fgPulse(time.Duration(i)*100*time.Millisecond, int64(i)*4096)
	}
	if err := r.sim.RunUntil(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := r.sc.Stats().Requests; got != 0 {
		t.Fatalf("AR fired %d requests despite an infinite threshold", got)
	}
}

func TestARWaitingCombination(t *testing.T) {
	r := newRig(t)
	aw := &ARWaiting{
		WaitThreshold: 20 * time.Millisecond,
		ARThreshold:   40 * time.Millisecond,
		MaxOrder:      4, Window: 512, RefitEvery: 32,
	}
	aw.Attach(r.sim, r.q, r.sc)
	for i := 0; i < 100; i++ {
		r.fgPulse(time.Duration(i)*100*time.Millisecond, int64(i)*4096)
	}
	if err := r.sim.RunUntil(11 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.sc.Stats()
	if st.Requests == 0 {
		t.Fatal("AR+Waiting never fired")
	}
	// First fire must respect the wait threshold.
	if st.FirstFired < 20*time.Millisecond {
		t.Fatalf("fired at %v, before the wait threshold", st.FirstFired)
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []Policy{
		&Waiting{Threshold: time.Millisecond},
		&AR{Threshold: time.Millisecond},
		&ARWaiting{WaitThreshold: time.Millisecond, ARThreshold: time.Millisecond},
	} {
		if p.Name() == "" {
			t.Fatal("empty name")
		}
	}
}

func TestWaitingOnRealTraceReducesSlowdown(t *testing.T) {
	// End-to-end: replaying a calibrated trace, the Waiting policy must
	// produce far less slowdown than a naive back-to-back Idle scrubber
	// while still scrubbing.
	spec, _ := trace.ByName("HPc3t3d0")
	tr := spec.Generate(9, 3*time.Minute)

	base := func() *replay.Result {
		s := sim.New()
		d := disk.MustNew(disk.HitachiUltrastar15K450())
		q := blockdev.NewQueue(s, d, iosched.NewCFQ())
		res, err := (&replay.Replayer{}).RunSource(s, q, tr.Source(), tr.DiskSectors)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	run := func(useWaiting bool) (*replay.Result, float64) {
		s := sim.New()
		d := disk.MustNew(disk.HitachiUltrastar15K450())
		q := blockdev.NewQueue(s, d, iosched.NewCFQ())
		alg, _ := scrub.NewSequential(d.Sectors())
		sc, err := scrub.New(s, q, scrub.Config{Algorithm: alg})
		if err != nil {
			t.Fatal(err)
		}
		if useWaiting {
			(&Waiting{Threshold: 500 * time.Millisecond}).Attach(s, q, sc)
		} else {
			sc.Start()
		}
		res, err := (&replay.Replayer{}).RunSource(s, q, tr.Source(), tr.DiskSectors)
		if err != nil {
			t.Fatal(err)
		}
		return res, sc.Stats().ThroughputMBps(s.Now())
	}

	naive, naiveTP := run(false)
	waiting, waitTP := run(true)
	if waitTP <= 0 {
		t.Fatal("waiting policy scrubbed nothing")
	}
	_ = naiveTP
	naiveSlow := naive.MeanSlowdownVs(base)
	waitSlow := waiting.MeanSlowdownVs(base)
	if waitSlow >= naiveSlow {
		t.Fatalf("waiting slowdown %v not below naive %v", waitSlow, naiveSlow)
	}
	if waiting.CollisionRate() >= naive.CollisionRate() {
		t.Fatalf("waiting collisions %.4f not below naive %.4f",
			waiting.CollisionRate(), naive.CollisionRate())
	}
}

func TestWaitingSetThreshold(t *testing.T) {
	r := newRig(t)
	w := &Waiting{Threshold: time.Hour} // effectively never fire
	w.Attach(r.sim, r.q, r.sc)
	r.fgPulse(0, 0)
	if err := r.sim.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if r.sc.Stats().Requests != 0 {
		t.Fatal("fired despite an hour threshold")
	}
	// Online re-tune to something small; the next idle edge applies it.
	w.SetThreshold(20 * time.Millisecond)
	r.fgPulse(r.sim.Now()+10*time.Millisecond, 4096)
	if err := r.sim.RunUntil(r.sim.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if r.sc.Stats().Requests == 0 {
		t.Fatal("new threshold not applied")
	}
	if w.Name() == "" {
		t.Fatal("empty name")
	}
}
