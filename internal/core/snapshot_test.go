package core_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scrub"
)

// snapshotVariants covers every parkable configuration family: both
// algorithms, both issuing modes, fixed-delay and waiting policies,
// escalation, retries, uniform and bursty fault models, and a
// fault-free system.
func snapshotVariants() map[string]core.Config {
	m := disk.DemoSmall()
	return map[string]core.Config{
		"fixed-seq-uniform": {
			Model:      &m,
			Algorithm:  core.Sequential,
			Policy:     core.PolicyFixedDelay,
			Delay:      200 * time.Millisecond,
			ReqBytes:   256 << 10,
			AutoRepair: true,
			Faults:     fault.Uniform{RatePerHour: 60},
			FaultSeed:  11,
		},
		"waiting-stag-bursty": {
			Model:         &m,
			Algorithm:     core.Staggered,
			Regions:       64,
			Policy:        core.PolicyWaiting,
			WaitThreshold: 50 * time.Millisecond,
			ReqBytes:      128 << 10,
			AutoRepair:    true,
			Escalate:      true,
			Retry:         blockdev.RetryPolicy{MaxRetries: 2, Backoff: 5 * time.Millisecond},
			Faults:        fault.Bursty{RatePerHour: 90, MeanBurst: 3, ClusterSectors: 512},
			FaultSeed:     13,
		},
		"user-mode-uniform": {
			Model:     &m,
			Algorithm: core.Sequential,
			Mode:      scrub.UserMode,
			Policy:    core.PolicyFixedDelay,
			Delay:     300 * time.Millisecond,
			ReqBytes:  128 << 10,
			Faults:    fault.Uniform{RatePerHour: 40},
			FaultSeed: 17,
		},
		"no-faults": {
			Model:     &m,
			Algorithm: core.Sequential,
			Policy:    core.PolicyFixedDelay,
			Delay:     150 * time.Millisecond,
			ReqBytes:  256 << 10,
		},
	}
}

func buildSys(t *testing.T, cfg core.Config) (*core.System, *obs.Registry) {
	t.Helper()
	reg := obs.New()
	cfg.Obs = reg
	sys, err := core.NewFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.Start()
	return sys, reg
}

// rollToParkable steps single events until the system reaches a state a
// snapshot can represent — the same roll-forward the fleet engine does
// at a slice boundary.
func rollToParkable(t *testing.T, sys *core.System) {
	t.Helper()
	for i := 0; i < 1<<20; i++ {
		if sys.Parkable() == nil {
			return
		}
		if !sys.Sim.Step() {
			t.Fatalf("event queue drained while not parkable: %v", sys.Parkable())
		}
	}
	t.Fatalf("still not parkable after 2^20 events: %v", sys.Parkable())
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// finish drives a system to exactly horizon and returns its observable
// identity: report, obs snapshot, and kernel clock.
func finish(t *testing.T, sys *core.System, reg *obs.Registry, horizon time.Duration) (string, string, string) {
	t.Helper()
	if d := horizon - sys.Sim.Now(); d > 0 {
		if err := sys.RunFor(context.Background(), d); err != nil {
			t.Fatal(err)
		}
	}
	now, seq, fired := sys.Sim.Clock()
	clock := mustJSON(t, []any{now, seq, fired})
	return mustJSON(t, sys.Report()), mustJSON(t, reg.Snapshot()), clock
}

// TestSnapshotRoundTrip is the round-trip property: park a system
// mid-run, gob the snapshot through bytes, restore it into a fresh
// stack, then drive the never-parked reference, the parked original and
// the restored copy to the same horizon — all three must be
// byte-identical in report, obs and clock.
func TestSnapshotRoundTrip(t *testing.T) {
	const horizon = 90 * time.Second
	cuts := []time.Duration{
		7 * time.Second,
		23*time.Second + 500*time.Millisecond,
		61 * time.Second,
	}
	for name, cfg := range snapshotVariants() {
		t.Run(name, func(t *testing.T) {
			live, liveReg := buildSys(t, cfg)
			wantRep, wantObs, wantClock := finish(t, live, liveReg, horizon)

			for _, cut := range cuts {
				orig, origReg := buildSys(t, cfg)
				if err := orig.RunFor(context.Background(), cut); err != nil {
					t.Fatal(err)
				}
				rollToParkable(t, orig)

				st, err := orig.Snapshot()
				if err != nil {
					t.Fatalf("cut %v: %v", cut, err)
				}
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(st); err != nil {
					t.Fatalf("cut %v: encode: %v", cut, err)
				}
				var rt core.SystemState
				if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&rt); err != nil {
					t.Fatalf("cut %v: decode: %v", cut, err)
				}

				// The restored stack gets a fresh registry primed with the
				// parked system's counts, exactly as the fleet engine does.
				restReg := obs.New()
				if err := restReg.MergeSnapshot(origReg.Snapshot()); err != nil {
					t.Fatal(err)
				}
				rcfg := cfg
				rcfg.Obs = restReg
				rest, err := core.RestoreSystem(rcfg, &rt)
				if err != nil {
					t.Fatalf("cut %v: restore: %v", cut, err)
				}

				// Snapshotting must not perturb the original.
				gotRep, gotObs, gotClock := finish(t, orig, origReg, horizon)
				if gotRep != wantRep || gotObs != wantObs || gotClock != wantClock {
					t.Errorf("cut %v: parked original diverged from live reference\nlive rep:   %s\nparked rep: %s", cut, wantRep, gotRep)
				}
				gotRep, gotObs, gotClock = finish(t, rest, restReg, horizon)
				if gotRep != wantRep {
					t.Errorf("cut %v: restored report diverged\nlive:     %s\nrestored: %s", cut, wantRep, gotRep)
				}
				if gotObs != wantObs {
					t.Errorf("cut %v: restored obs diverged\nlive:     %s\nrestored: %s", cut, wantObs, gotObs)
				}
				if gotClock != wantClock {
					t.Errorf("cut %v: restored clock diverged: live %s, restored %s", cut, wantClock, gotClock)
				}
			}
		})
	}
}

// TestSnapshotRejectsUnparkable pins the guard rails: a system with a
// foreign (non-scrubber) request in flight must refuse to snapshot
// rather than silently drop the request's callback.
func TestSnapshotRejectsUnparkable(t *testing.T) {
	cfg := snapshotVariants()["no-faults"]
	sys, _ := buildSys(t, cfg)
	if err := sys.RunFor(context.Background(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	rollToParkable(t, sys)
	r := sys.Queue.GetRequest()
	r.Op = disk.OpRead
	r.LBA = 0
	r.Sectors = 8
	r.Origin = blockdev.Foreground
	sys.Queue.Submit(r)
	if sys.Parkable() == nil {
		t.Fatal("system with a foreign request reported parkable")
	}
	if _, err := sys.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded with a foreign request in the queue")
	}
}

// TestRestoreConfigMismatch pins restore validation: a snapshot with
// fault state must not restore into a fault-free config and vice versa.
func TestRestoreConfigMismatch(t *testing.T) {
	cfg := snapshotVariants()["fixed-seq-uniform"]
	sys, _ := buildSys(t, cfg)
	if err := sys.RunFor(context.Background(), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rollToParkable(t, sys)
	st, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bare := cfg
	bare.Faults = nil
	bare.FaultSeed = 0
	if _, err := core.RestoreSystem(bare, st); err == nil {
		t.Error("fault-state snapshot restored into fault-free config")
	}
	st.Fault = nil
	if _, err := core.RestoreSystem(cfg, st); err == nil {
		t.Error("fault-free snapshot restored into fault-model config")
	}

	// The policy state must match too: a fixed-delay snapshot carries
	// none, which a waiting-policy config refuses, and the reverse.
	waiting := cfg
	waiting.Faults, waiting.FaultSeed = nil, 0
	waiting.Policy = core.PolicyWaiting
	if _, err := core.RestoreSystem(waiting, st); err == nil {
		t.Error("snapshot without waiting-policy state restored into a waiting config")
	}
	wsys, _ := buildSys(t, waiting)
	rollToParkable(t, wsys)
	wst, err := wsys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.RestoreSystem(bare, wst); err == nil {
		t.Error("waiting-policy snapshot restored into a fixed-delay config")
	}
}
