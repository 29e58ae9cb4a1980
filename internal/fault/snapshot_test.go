package fault_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/sim"
)

// snapRig builds a standalone sim+disk+injector (no queue: arrivals
// only), the smallest system whose snapshot captures an RNG position,
// a pulled-ahead burst and the lifecycle maps.
func snapRig(t *testing.T, m fault.Model, seed int64) (*sim.Simulator, *disk.Disk, *fault.Injector) {
	t.Helper()
	s := sim.New()
	d := disk.MustNew(disk.DemoSmall())
	return s, d, fault.NewInjector(s, d, m, seed)
}

// TestInjectorSnapshotRoundTrip cuts a running injector mid-stream,
// rebuilds it from (model, seed, snapshot) on a fresh sim+disk, and
// checks the restored copy's future — arrivals, stats, RNG position —
// is byte-identical to the original's. Exercised for every built-in
// model, so both PosSource implementations (poisson and accelerated)
// get their Pos/SetPos paths proven.
func TestInjectorSnapshotRoundTrip(t *testing.T) {
	const (
		seed    = 42
		cut     = 30 * time.Second
		horizon = 90 * time.Second
	)
	models := map[string]fault.Model{
		"uniform":     fault.Uniform{RatePerHour: 3600},
		"bursty":      fault.Bursty{RatePerHour: 1800, MeanBurst: 3, ClusterSectors: 512},
		"accelerated": fault.Accelerated{BaseRatePerHour: 1200, GrowthPerHour: 0.5, MeanBurst: 2},
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			s1, d1, in1 := snapRig(t, m, seed)
			in1.Start()
			if err := s1.RunUntil(cut); err != nil {
				t.Fatal(err)
			}
			// Detect one planted sector so the snapshot's Detected list
			// and detection counters are non-trivial.
			if lses := d1.State().LSEs; len(lses) > 0 {
				in1.Detect(lses[:1], s1.Now())
			} else {
				t.Fatalf("no arrivals by %v; raise the model rate", cut)
			}

			st, err := in1.State()
			if err != nil {
				t.Fatal(err)
			}
			if !st.Started || !st.HasNext {
				t.Fatalf("mid-stream snapshot lost its position: %+v", st)
			}
			if st.Draws == 0 {
				t.Fatalf("RNG position not captured: %+v", st)
			}
			now, seq, fired := s1.Clock()

			s2 := sim.New()
			s2.RestoreClock(now, seq, fired)
			d2, err := disk.RestoreDisk(disk.DemoSmall(), d1.State())
			if err != nil {
				t.Fatal(err)
			}
			in2, err := fault.RestoreInjector(s2, d2, m, seed, st)
			if err != nil {
				t.Fatal(err)
			}

			// Futures must now be indistinguishable.
			if err := s1.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}
			if err := s2.RunUntil(horizon); err != nil {
				t.Fatal(err)
			}
			if in1.Stats() != in2.Stats() {
				t.Fatalf("stats diverged:\n live     %+v\n restored %+v", in1.Stats(), in2.Stats())
			}
			st1, err := in1.State()
			if err != nil {
				t.Fatal(err)
			}
			st2, err := in2.State()
			if err != nil {
				t.Fatal(err)
			}
			if a, b := fmt.Sprintf("%+v", st1), fmt.Sprintf("%+v", st2); a != b {
				t.Fatalf("injector state diverged:\n live     %s\n restored %s", a, b)
			}
			if a, b := fmt.Sprintf("%+v", d1.State()), fmt.Sprintf("%+v", d2.State()); a != b {
				t.Fatalf("disk state diverged:\n live     %s\n restored %s", a, b)
			}
			if in1.Stats().Injected == 0 || in1.Stats().Detected == 0 {
				t.Fatalf("degenerate round trip, nothing injected/detected: %+v", in1.Stats())
			}
		})
	}
}

// TestInjectorSnapshotBeforeStart round-trips the HasNext=false branch:
// an idle injector snapshot restores to an idle injector, and starting
// both afterwards yields identical streams.
func TestInjectorSnapshotBeforeStart(t *testing.T) {
	m := fault.Uniform{RatePerHour: 3600}
	s1, _, in1 := snapRig(t, m, 7)
	st, err := in1.State()
	if err != nil {
		t.Fatal(err)
	}
	if st.Started || st.HasNext || st.Draws != 0 {
		t.Fatalf("idle snapshot not idle: %+v", st)
	}

	s2, d2, _ := snapRig(t, m, 7)
	in2, err := fault.RestoreInjector(s2, d2, m, 7, st)
	if err != nil {
		t.Fatal(err)
	}
	in1.Start()
	in2.Start()
	for _, run := range []struct {
		s *sim.Simulator
	}{{s1}, {s2}} {
		if err := run.s.RunUntil(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if in1.Stats() != in2.Stats() {
		t.Fatalf("idle-restored injector diverged: %+v vs %+v", in1.Stats(), in2.Stats())
	}
}

// TestInjectorSnapshotRejectsUnpositionableSource: a model without
// PosSource support can neither be captured nor restored.
func TestInjectorSnapshotRejectsUnpositionableSource(t *testing.T) {
	m := stream{bursts: []fault.Burst{{At: time.Second, LBAs: []int64{5}}}}
	_, _, in := snapRig(t, m, 1)
	if _, err := in.State(); err == nil || !strings.Contains(err.Error(), "position") {
		t.Fatalf("State on scripted source: err = %v, want position-capture refusal", err)
	}
	if err := in.RestoreState(&fault.InjectorState{}, 1); err == nil || !strings.Contains(err.Error(), "position") {
		t.Fatalf("RestoreState on scripted source: err = %v, want position-restore refusal", err)
	}
}

// TestRestoreInjectorRejectsBadEventSeq: a pending-arrival record whose
// sequence number is out of range for the restored clock must fail the
// whole restore — a silent drop would lose the arrival stream.
func TestRestoreInjectorRejectsBadEventSeq(t *testing.T) {
	s := sim.New()
	d := disk.MustNew(disk.DemoSmall())
	st := &fault.InjectorState{
		Started: true,
		HasNext: true,
		NextAt:  time.Second,
		EvAt:    time.Second,
		EvSeq:   99, // fresh sim's clock seq is 0: out of range
	}
	in, err := fault.RestoreInjector(s, d, fault.Uniform{RatePerHour: 60}, 1, st)
	if err == nil || !strings.Contains(err.Error(), "restore arrival event") {
		t.Fatalf("RestoreInjector with stale event seq: in=%v err=%v, want restore refusal", in, err)
	}
}
