package raidsim

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/raid"
)

// rowPlanter plants one LSE at the start of each of the first k stripe
// rows, at t=1ms — the same sectors on every member (the scripted model
// ignores the per-member seed).
type rowPlanter struct {
	k      int
	stripe int64
}

func (p rowPlanter) Name() string { return "row-planter" }
func (p rowPlanter) NewSource(int64, int64) fault.Source {
	lbas := make([]int64, p.k)
	for i := range lbas {
		lbas[i] = int64(i) * 10 * p.stripe
	}
	return &oneShot{burst: fault.Burst{At: time.Millisecond, LBAs: lbas}}
}

type oneShot struct {
	burst fault.Burst
	done  bool
}

func (s *oneShot) Next() (fault.Burst, bool) {
	if s.done {
		return fault.Burst{}, false
	}
	s.done = true
	return s.burst, true
}

func TestInjectFaultsLifecycle(t *testing.T) {
	g := newGroup(t, 3)
	const k = 4
	if err := g.InjectFaults(rowPlanter{k: k, stripe: g.cfg.StripeSectors}, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.InjectFaults(rowPlanter{k: k, stripe: g.cfg.StripeSectors}, 1); err == nil {
		t.Fatal("double InjectFaults accepted")
	}
	if err := g.Sim().RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	// k sectors per member, 3 members.
	if got := g.FaultStats().Injected; got != 3*k {
		t.Fatalf("Injected = %d, want %d", got, 3*k)
	}

	if err := g.FailDisk(0); err != nil {
		t.Fatal(err)
	}
	if err := g.StartRebuild(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().RunUntil(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.RebuildRows != g.rowsTotal {
		t.Fatal("rebuild incomplete")
	}
	// The rebuild sweeps every survivor end to end, so it trips over every
	// planted sector on the two survivors; both survivors share the same k
	// rows, each counted once.
	if st.LSEsHitDuringRebuild != 2*k {
		t.Fatalf("LSEsHitDuringRebuild = %d, want %d", st.LSEsHitDuringRebuild, 2*k)
	}
	if st.UnrecoverableStripes != k {
		t.Fatalf("UnrecoverableStripes = %d, want %d", st.UnrecoverableStripes, k)
	}
	// Rebuild reads flow through the member queues, so the injectors see
	// the detections.
	if got := g.FaultStats().Detected; got != 2*k {
		t.Fatalf("FaultStats().Detected = %d, want %d", got, 2*k)
	}
}

func TestDegradedReadsHitLatentErrors(t *testing.T) {
	g := newGroup(t, 3)
	if err := g.InjectFaults(rowPlanter{k: 1, stripe: g.cfg.StripeSectors}, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	// Fail the member holding row 0's data unit; the reconstruction read
	// of logical LBA 0 must touch both survivors' planted sector 0.
	_, member, _ := g.locate(0)
	if err := g.FailDisk(member); err != nil {
		t.Fatal(err)
	}
	done := false
	if err := g.Read(0, 64, func(time.Duration) { done = true }); err != nil {
		t.Fatal(err)
	}
	if err := g.Sim().Run(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if !done || st.DegradedReads != 1 {
		t.Fatalf("degraded read not served: done=%v DegradedReads=%d", done, st.DegradedReads)
	}
	if st.UnrecoverableReads != 1 {
		t.Fatalf("UnrecoverableReads = %d, want 1", st.UnrecoverableReads)
	}
	if st.LSEsHitDegraded != 2 {
		t.Fatalf("LSEsHitDegraded = %d, want 2 (one per survivor)", st.LSEsHitDegraded)
	}
}

// TestInjectFaultsDeterministicAcrossRuns: identical groups with the
// same model and seed plant identical streams (per-member sub-seeding
// included), so every counter matches run to run.
func TestInjectFaultsDeterministicAcrossRuns(t *testing.T) {
	run := func() (fault.Stats, Stats) {
		g := newGroup(t, 3)
		m := fault.Bursty{RatePerHour: 3600, MeanBurst: 3, ClusterSectors: 256}
		if err := g.InjectFaults(m, 99); err != nil {
			t.Fatal(err)
		}
		if err := g.Sim().RunUntil(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := g.FailDisk(1); err != nil {
			t.Fatal(err)
		}
		if err := g.StartRebuild(0, nil); err != nil {
			t.Fatal(err)
		}
		if err := g.Sim().RunUntil(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return g.FaultStats(), g.Stats()
	}
	fa, sa := run()
	fb, sb := run()
	if fa != fb {
		t.Fatalf("fault stats diverge across identical runs:\n%+v\n%+v", fa, fb)
	}
	if sa.UnrecoverableStripes != sb.UnrecoverableStripes || sa.LSEsHitDuringRebuild != sb.LSEsHitDuringRebuild {
		t.Fatalf("loss stats diverge across identical runs:\n%+v\n%+v", sa, sb)
	}
	if fa.Injected == 0 {
		t.Fatal("nothing injected; determinism check proves nothing")
	}
}

// TestObservedLossMatchesAnalyticModel closes the loop between the
// simulator and raid.Analyze: feed the analytic model the latent-error
// level the injector actually left on the survivors, and its rebuild
// loss probability must agree with what the simulated rebuild observed —
// near-certain loss with many outstanding errors, zero with none.
func TestObservedLossMatchesAnalyticModel(t *testing.T) {
	runRebuild := func(k int) (observedLoss bool, latentPerSurvivor float64) {
		g := newGroup(t, 3)
		if k > 0 {
			if err := g.InjectFaults(rowPlanter{k: k, stripe: g.cfg.StripeSectors}, 1); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.Sim().RunUntil(time.Second); err != nil {
			t.Fatal(err)
		}
		if err := g.FailDisk(0); err != nil {
			t.Fatal(err)
		}
		if err := g.StartRebuild(0, nil); err != nil {
			t.Fatal(err)
		}
		if err := g.Sim().RunUntil(10 * time.Minute); err != nil {
			t.Fatal(err)
		}
		return g.Stats().UnrecoverableStripes > 0, float64(k)
	}

	analyze := func(latentPerDisk float64) raid.Report {
		// Express the observed latent level as rate x MLET, the product
		// raid.Array actually consumes (Little's law).
		rep, err := raid.Analyze(raid.Array{
			Disks:       3,
			DiskMTTF:    1000 * 24 * time.Hour,
			RebuildTime: 10 * time.Minute,
			LSERate:     latentPerDisk, // events/hour...
			ScrubMLET:   time.Hour,     // ...times 1h residence = latentPerDisk
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Many outstanding errors: the model predicts near-certain loss, and
	// the simulated rebuild observes it.
	lost, latent := runRebuild(4)
	pred := analyze(latent)
	if pred.PLossLSE < 0.99 {
		t.Fatalf("analytic P(loss) = %v with %v latent/survivor, expected near-certain", pred.PLossLSE, latent)
	}
	if !lost {
		t.Fatal("simulated rebuild lost nothing despite near-certain analytic prediction")
	}

	// A clean array: the model predicts zero loss, and the rebuild is clean.
	lost, latent = runRebuild(0)
	pred = analyze(latent)
	if pred.PLossLSE != 0 {
		t.Fatalf("analytic P(loss) = %v with zero latent errors", pred.PLossLSE)
	}
	if lost {
		t.Fatal("simulated rebuild lost stripes on clean survivors")
	}

	// And the headline direction the paper argues: driving the MLET down
	// (better scrubbing) improves the loss rate monotonically.
	lossPerYear := func(mlet time.Duration) float64 {
		rep, err := raid.Analyze(raid.Array{
			Disks: 3, DiskMTTF: 1000 * 24 * time.Hour, RebuildTime: 10 * time.Minute,
			LSERate: 0.001, ScrubMLET: mlet,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep.LossPerYear
	}
	if slow, fast := lossPerYear(100*time.Hour), lossPerYear(time.Hour); fast >= slow {
		t.Fatalf("losses/yr %v at a 1 h MLET vs %v at 100 h; want fewer", fast, slow)
	}
}
