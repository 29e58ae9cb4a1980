package fleet

import (
	"context"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/scrub"
)

// testClasses is a fleet cross-section: every policy family the engine
// can park, both algorithms, both issuing modes, escalation, retries and
// two fault models.
func testClasses() []MemberClass {
	m := disk.DemoSmall()
	return []MemberClass{
		{
			Name:  "fixed-seq",
			Count: 3,
			Config: core.Config{
				Model:      &m,
				Algorithm:  core.Sequential,
				Policy:     core.PolicyFixedDelay,
				Delay:      200 * time.Millisecond,
				ReqBytes:   256 << 10,
				AutoRepair: true,
				Faults:     fault.Uniform{RatePerHour: 50},
			},
		},
		{
			Name:  "waiting-stag",
			Count: 3,
			Config: core.Config{
				Model:         &m,
				Algorithm:     core.Staggered,
				Regions:       64,
				Policy:        core.PolicyWaiting,
				WaitThreshold: 50 * time.Millisecond,
				ReqBytes:      128 << 10,
				AutoRepair:    true,
				Escalate:      true,
				Retry:         blockdev.RetryPolicy{MaxRetries: 2, Backoff: 5 * time.Millisecond},
				Faults:        fault.Bursty{RatePerHour: 80, MeanBurst: 3, ClusterSectors: 512},
			},
		},
		{
			Name:  "user-fixed",
			Count: 2,
			Config: core.Config{
				Model:     &m,
				Algorithm: core.Sequential,
				Mode:      scrub.UserMode,
				Policy:    core.PolicyFixedDelay,
				Delay:     300 * time.Millisecond,
				ReqBytes:  128 << 10,
				Faults:    fault.Uniform{RatePerHour: 30},
			},
		},
	}
}

// hotFaultClasses is testClasses plus two classes whose fault streams
// run at thousands of events per hour, so parked members carry planted
// and detected sectors and a pulled-ahead burst: "uniform-hot" never
// repairs, so its detected set only grows, and "bursty-hot" plants
// clustered multi-sector bursts that escalate and repair.
func hotFaultClasses() []MemberClass {
	m := disk.DemoSmall()
	return append(testClasses(),
		MemberClass{
			Name:  "uniform-hot",
			Count: 2,
			Config: core.Config{
				Model:     &m,
				Algorithm: core.Sequential,
				Policy:    core.PolicyFixedDelay,
				Delay:     100 * time.Millisecond,
				ReqBytes:  256 << 10,
				Faults:    fault.Uniform{RatePerHour: 2e4},
			},
		},
		MemberClass{
			Name:  "bursty-hot",
			Count: 3,
			Config: core.Config{
				Model:         &m,
				Algorithm:     core.Staggered,
				Regions:       32,
				Policy:        core.PolicyWaiting,
				WaitThreshold: 20 * time.Millisecond,
				ReqBytes:      256 << 10,
				AutoRepair:    true,
				Escalate:      true,
				Faults:        fault.Bursty{RatePerHour: 5e3, MeanBurst: 4, ClusterSectors: 256},
			},
		})
}

const (
	testSeed    = int64(42)
	testHorizon = 2 * time.Minute
)

func runEngine(t *testing.T, classes []MemberClass, shards, workers int, slice time.Duration) (*Report, []core.Report, []obs.Snapshot) {
	t.Helper()
	e, err := New(Config{
		Shards: shards, Workers: workers, Slice: slice,
		Seed: testSeed, Instrument: true, KeepMembers: true,
	}, classes)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := e.Run(context.Background(), testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	return rep, e.MemberReports(), e.MemberObs()
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardCountDeterminism is the tentpole's acceptance gate: the same
// fleet run with 1 shard, 8 shards, and different slice cadences —
// sub-second ones included, so each live stack restores many members
// carrying fault state — yields byte-identical fleet reports, per-member
// reports and per-member obs snapshots.
func TestShardCountDeterminism(t *testing.T) {
	classes := hotFaultClasses()
	requireFaultStateAtParks(t, classes, 700*time.Millisecond)
	repA, memA, obsA := runEngine(t, classes, 1, 1, 0)
	for _, run := range []struct {
		shards, workers int
		slice           time.Duration
	}{
		{8, 4, 15 * time.Second},
		{3, 2, 7 * time.Second},
		{5, 2, 700 * time.Millisecond},
	} {
		rep, mem, o := runEngine(t, classes, run.shards, run.workers, run.slice)
		if a, b := asJSON(t, repA), asJSON(t, rep); a != b {
			t.Errorf("fleet report differs 1 shard vs %+v:\nA: %s\nB: %s", run, a, b)
		}
		if a, b := asJSON(t, memA), asJSON(t, mem); a != b {
			t.Errorf("member reports differ 1 shard vs %+v", run)
		}
		if a, b := asJSON(t, obsA), asJSON(t, o); a != b {
			t.Errorf("member obs snapshots differ 1 shard vs %+v", run)
		}
	}
}

// requireFaultStateAtParks checks that the fleet parks members in the
// states the determinism battery means to cover: some member parked with
// planted-undetected sectors, some with detected-unrepaired ones, and
// some with a pulled-ahead multi-sector burst.
func requireFaultStateAtParks(t *testing.T, classes []MemberClass, slice time.Duration) {
	t.Helper()
	e, err := New(Config{Shards: 2, Slice: slice, Seed: testSeed}, classes)
	if err != nil {
		t.Fatal(err)
	}
	var arrival, detected, burst bool
	for at := slice; at < testHorizon && !(arrival && detected && burst); at += slice {
		if err := e.Advance(context.Background(), at); err != nil {
			t.Fatal(err)
		}
		for _, m := range e.slots {
			f := m.state.Fault
			arrival = arrival || len(f.Arrival) > 0
			detected = detected || len(f.Detected) > 0
			burst = burst || (f.HasNext && len(f.NextLBAs) > 1)
		}
	}
	if !arrival || !detected || !burst {
		t.Fatalf("parks never carried fault state: planted %v, detected %v, multi-sector burst ahead %v",
			arrival, detected, burst)
	}
}

// TestEngineMatchesMonolithicFleet pins the engine, parking every
// 900 ms, to a reference built here: the same members as always-live
// systems, each advanced to the horizon in one RunFor, produce byte-identical per-member reports and
// obs snapshots, and integer totals matching the engine's fleet report.
// The engine's park/hydrate cycles must be invisible to every trajectory.
func TestEngineMatchesMonolithicFleet(t *testing.T) {
	classes := hotFaultClasses()
	engRep, engMem, engObs := runEngine(t, classes, 8, 4, 900*time.Millisecond)

	var systems []*core.System
	var regs []*obs.Registry
	for _, cls := range classes {
		for i := 0; i < cls.Count; i++ {
			cfg := cls.Config
			cfg.FaultSeed = par.SubSeed(testSeed, cls.Name, strconv.Itoa(i))
			reg := obs.New()
			cfg.Obs = reg
			sys, err := core.NewFromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sys.Start()
			if err := sys.RunFor(context.Background(), testHorizon); err != nil {
				t.Fatal(err)
			}
			systems = append(systems, sys)
			regs = append(regs, reg)
		}
	}

	var sumScrubbed, sumFound, sumInjected, sumDetected int64
	for i, sys := range systems {
		rep := sys.Report()
		if a, b := asJSON(t, rep), asJSON(t, engMem[i]); a != b {
			t.Errorf("member %d report: engine vs monolithic differ:\nmono:   %s\nengine: %s", i, a, b)
		}
		if a, b := asJSON(t, regs[i].Snapshot()), asJSON(t, engObs[i]); a != b {
			t.Errorf("member %d obs snapshot: engine vs monolithic differ", i)
		}
		sumScrubbed += rep.ScrubbedBytes
		sumFound += rep.LSEsFound
		sumInjected += rep.LSEsInjected
		sumDetected += rep.LSEsDetected
	}
	if engRep.ScrubbedBytes != sumScrubbed || engRep.LSEsFound != sumFound ||
		engRep.LSEsInjected != sumInjected || engRep.LSEsDetected != sumDetected {
		t.Errorf("fleet totals diverge from monolithic sums: %+v vs (%d, %d, %d, %d)",
			engRep, sumScrubbed, sumFound, sumInjected, sumDetected)
	}

	// The merged fleet view must equal the reduction of the monolithic
	// registries — obs merging is exact, not approximate.
	snaps := make([]obs.Snapshot, len(regs))
	for i, reg := range regs {
		snaps[i] = reg.Snapshot()
	}
	merged, err := obs.MergeSnapshots(snaps...)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := asJSON(t, merged), asJSON(t, engRep.Obs); a != b {
		t.Errorf("merged fleet obs differ:\nmono:   %s\nengine: %s", a, b)
	}
}

// TestRestoreInPlaceMatchesFresh is the reuse check behind the live
// stacks: member B restored in place onto a stack that has just run
// member A — another fault seed, faults planted and detected — must
// equal B restored onto a freshly built stack: the same state, then the
// same reports, metrics and states over the next slices. A is left in
// each state a shard's stack can be in: just started, its kick timer
// pending; mid-request with (for the repairing class) repair writes
// queued in the elevator; idle with timers armed and the disk cache
// filled by a foreground read; and the
// target is either B parked mid-campaign or the class's pristine
// pre-Start state, which first-sight members restore.
func TestRestoreInPlaceMatchesFresh(t *testing.T) {
	ctx := context.Background()
	park := func(t *testing.T, sys *core.System) *core.SystemState {
		t.Helper()
		for sys.Parkable() != nil {
			if !sys.Sim.Step() {
				t.Fatal("ran out of events before a parkable state")
			}
		}
		st := new(core.SystemState)
		if err := sys.Snapshot(st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	// Ways to leave member A's stack before B is restored onto it.
	leaveA := map[string]func(t *testing.T, a *core.System, cls MemberClass){
		"started": func(t *testing.T, a *core.System, cls MemberClass) {
			// Inside the first wait threshold: a kick timer is pending.
			a.Start()
			if err := a.RunFor(ctx, cls.Config.WaitThreshold/2); err != nil {
				t.Fatal(err)
			}
		},
		"busy": func(t *testing.T, a *core.System, cls MemberClass) {
			a.Start()
			if err := a.RunFor(ctx, 35*time.Second); err != nil {
				t.Fatal(err)
			}
			wantQueued := cls.Config.AutoRepair
			for steps := 0; a.Queue.Inflight() == nil || (wantQueued && a.Queue.Pending() == 0); steps++ {
				if steps > 1<<20 || !a.Sim.Step() {
					t.Fatal("member A never reached a busy block layer")
				}
			}
		},
		"armed": func(t *testing.T, a *core.System, cls MemberClass) {
			a.Start()
			if err := a.RunFor(ctx, 35*time.Second); err != nil {
				t.Fatal(err)
			}
			// A foreground read holds the scrubber; when it completes
			// the device idles and a waiting policy arms its timer.
			a.Queue.Submit(&blockdev.Request{Op: disk.OpRead, LBA: 4096, Sectors: 64, Origin: blockdev.Foreground})
			for steps := 0; !a.Queue.Idle(); steps++ {
				if steps > 1<<20 || !a.Sim.Step() {
					t.Fatal("member A never went idle")
				}
			}
			if cls.Config.Policy == core.PolicyWaiting && a.Sim.Len() == 0 {
				t.Fatal("member A idles with no timer armed")
			}
		},
	}
	for _, cls := range hotFaultClasses()[3:] {
		cfgOf := func(seed int64) (core.Config, *obs.Registry) {
			cfg := cls.Config
			cfg.FaultSeed = seed
			reg := obs.New()
			cfg.Obs = reg
			return cfg, reg
		}
		stack := func(t *testing.T, seed int64) (*core.System, *obs.Registry) {
			cfg, reg := cfgOf(seed)
			sys, err := core.NewFromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return sys, reg
		}
		for how, leave := range leaveA {
			t.Run(cls.Name+"/"+how+"/parked", func(t *testing.T) {
				b, bReg := stack(t, 7)
				b.Start()
				if err := b.RunFor(ctx, 20*time.Second); err != nil {
					t.Fatal(err)
				}
				stB := park(t, b)
				if len(stB.Fault.Arrival) == 0 || !stB.Fault.HasNext {
					t.Fatalf("member B parked without fault state: %+v", stB.Fault)
				}
				valsB := bReg.AppendValues(nil)

				a, aReg := stack(t, 99)
				leave(t, a, cls)
				if err := a.Restore(stB, 7); err != nil {
					t.Fatal(err)
				}
				if err := aReg.SetValues(valsB); err != nil {
					t.Fatal(err)
				}
				f, fReg := stack(t, 7)
				if err := f.Restore(stB, 7); err != nil {
					t.Fatal(err)
				}
				if err := fReg.SetValues(valsB); err != nil {
					t.Fatal(err)
				}

				stA, stF := park(t, a), park(t, f)
				for slice := 1; ; slice++ {
					if x, y := asJSON(t, stA), asJSON(t, stF); x != y {
						t.Fatalf("slice %d: in-place and fresh restores differ:\nin place: %s\nfresh:    %s", slice, x, y)
					}
					if x, y := asJSON(t, a.Report()), asJSON(t, f.Report()); x != y {
						t.Fatalf("slice %d: reports differ:\nin place: %s\nfresh:    %s", slice, x, y)
					}
					if x, y := asJSON(t, aReg.Snapshot()), asJSON(t, fReg.Snapshot()); x != y {
						t.Fatalf("slice %d: obs snapshots differ:\nin place: %s\nfresh:    %s", slice, x, y)
					}
					if slice == 3 {
						break
					}
					if err := a.RunFor(ctx, 5*time.Second); err != nil {
						t.Fatal(err)
					}
					if err := f.RunFor(ctx, 5*time.Second); err != nil {
						t.Fatal(err)
					}
					stA, stF = park(t, a), park(t, f)
				}
				if a.Report().Events == b.Report().Events {
					t.Fatal("the restored member ran no events over two slices")
				}
			})
			t.Run(cls.Name+"/"+how+"/pristine", func(t *testing.T) {
				sys, _ := stack(t, 1)
				pristine := park(t, sys)
				a, aReg := stack(t, 99)
				zero := aReg.AppendValues(nil)
				leave(t, a, cls)
				if err := a.Restore(pristine, 7); err != nil {
					t.Fatal(err)
				}
				if err := aReg.SetValues(zero); err != nil {
					t.Fatal(err)
				}
				f, fReg := stack(t, 7)
				if x, y := asJSON(t, park(t, a)), asJSON(t, park(t, f)); x != y {
					t.Fatalf("pristine restore differs from a fresh build:\nin place: %s\nfresh:    %s", x, y)
				}
				a.Start()
				f.Start()
				for _, sys := range []*core.System{a, f} {
					if err := sys.RunFor(ctx, 5*time.Second); err != nil {
						t.Fatal(err)
					}
				}
				if x, y := asJSON(t, park(t, a)), asJSON(t, park(t, f)); x != y {
					t.Fatalf("after Start: in place and fresh differ:\nin place: %s\nfresh:    %s", x, y)
				}
				if x, y := asJSON(t, aReg.Snapshot()), asJSON(t, fReg.Snapshot()); x != y {
					t.Fatalf("after Start: obs snapshots differ:\nin place: %s\nfresh:    %s", x, y)
				}
			})
		}
	}
}

// TestUnparkableClassRunsUnsliced: a class whose policy cannot park (AR
// keeps predictor state no snapshot carries) still runs in a one-slice
// campaign, each member on a stack of its own, and matches always-live
// systems; sliced, it fails with an explicit error.
func TestUnparkableClassRunsUnsliced(t *testing.T) {
	m := disk.DemoSmall()
	classes := []MemberClass{{Name: "ar", Count: 3, Config: core.Config{
		Model: &m, Algorithm: core.Staggered, Regions: 32, Policy: core.PolicyAR,
		ARThreshold: 20 * time.Millisecond, ReqBytes: 128 << 10,
		Faults: fault.Uniform{RatePerHour: 2e4},
	}}}
	_, mem, _ := runEngine(t, classes, 2, 2, 0)
	for i, rep := range mem {
		cfg := classes[0].Config
		cfg.FaultSeed = par.SubSeed(testSeed, "ar", strconv.Itoa(i))
		sys, err := core.NewFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.Start()
		if err := sys.RunFor(context.Background(), testHorizon); err != nil {
			t.Fatal(err)
		}
		if a, b := asJSON(t, sys.Report()), asJSON(t, rep); a != b {
			t.Errorf("member %d: engine vs live differ:\nlive:   %s\nengine: %s", i, a, b)
		}
	}
	e, err := New(Config{Slice: 10 * time.Second, Seed: testSeed}, classes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), testHorizon); err == nil || !strings.Contains(err.Error(), "predictor") {
		t.Fatalf("sliced AR campaign: err = %v, want a park refusal", err)
	}
}
