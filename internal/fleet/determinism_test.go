package fleet

import (
	"context"
	"encoding/json"
	"strconv"
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

const (
	testSeed    = int64(42)
	testHorizon = 2 * time.Minute
)

func runEngine(t *testing.T, shards, workers int, slice time.Duration) (*Report, []core.Report, []obs.Snapshot) {
	t.Helper()
	e, err := New(Config{
		Shards: shards, Workers: workers, Slice: slice,
		Seed: testSeed, Instrument: true, KeepMembers: true,
	}, testClasses())
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
// fleet run with 1 shard, 8 shards, and different slice cadences yields
// byte-identical fleet reports, per-member reports and per-member obs
// snapshots.
func TestShardCountDeterminism(t *testing.T) {
	repA, memA, obsA := runEngine(t, 1, 1, 0)
	repB, memB, obsB := runEngine(t, 8, 4, 15*time.Second)
	repC, memC, obsC := runEngine(t, 3, 2, 7*time.Second)

	if a, b := asJSON(t, repA), asJSON(t, repB); a != b {
		t.Errorf("fleet report differs 1 vs 8 shards:\nA: %s\nB: %s", a, b)
	}
	if a, c := asJSON(t, repA), asJSON(t, repC); a != c {
		t.Errorf("fleet report differs 1 vs 3 shards:\nA: %s\nC: %s", a, c)
	}
	if a, b := asJSON(t, memA), asJSON(t, memB); a != b {
		t.Errorf("member reports differ 1 vs 8 shards")
	}
	if a, c := asJSON(t, memA), asJSON(t, memC); a != c {
		t.Errorf("member reports differ 1 vs 3 shards")
	}
	if a, b := asJSON(t, obsA), asJSON(t, obsB); a != b {
		t.Errorf("member obs snapshots differ 1 vs 8 shards")
	}
	if a, c := asJSON(t, obsA), asJSON(t, obsC); a != c {
		t.Errorf("member obs snapshots differ 1 vs 3 shards")
	}
}

// TestEngineMatchesMonolithicFleet pins the engine to a reference built
// here: the same members as always-live systems, each advanced to the
// horizon in one RunFor, produce byte-identical per-member reports and
// obs snapshots, and integer totals matching the engine's fleet report.
// The engine's park/hydrate cycles must be invisible to every trajectory.
func TestEngineMatchesMonolithicFleet(t *testing.T) {
	engRep, engMem, engObs := runEngine(t, 8, 4, 11*time.Second)

	var systems []*core.System
	var regs []*obs.Registry
	for _, cls := range testClasses() {
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
