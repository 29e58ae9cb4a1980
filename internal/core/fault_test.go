package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/par"
)

// TestSystemWithFaultsEndToEnd runs the whole LSE lifecycle through a
// System: a Bursty arrival stream plants errors on an otherwise idle
// demo disk while a Waiting-policy scrubber sweeps, detects, escalates
// and repairs them. The Report must carry the fault clause.
func TestSystemWithFaultsEndToEnd(t *testing.T) {
	small := disk.DemoSmall()
	sys, err := New(&small,
		WithPolicy(PolicyWaiting),
		WithWaitThreshold(50*time.Millisecond),
		WithFaults(fault.Bursty{RatePerHour: 720, MeanBurst: 4, ClusterSectors: 1024}),
		WithFaultSeed(7),
		WithAutoRepair(),
		WithEscalation(),
		WithRetryPolicy(blockdev.RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond, Timeout: 100 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Faults == nil {
		t.Fatal("WithFaults did not attach an injector")
	}
	reg := obs.New()
	sys.Instrument(reg)
	sys.Start()
	if err := sys.RunFor(context.Background(), 30*time.Minute); err != nil {
		t.Fatal(err)
	}

	rep := sys.Report()
	if rep.LSEsInjected == 0 {
		t.Fatal("no LSEs injected in 30 minutes at 720/h")
	}
	if rep.LSEsDetected == 0 {
		t.Fatal("idle-disk scrub sweep detected nothing")
	}
	if rep.LSEsRemapped == 0 {
		t.Fatal("AutoRepair remapped nothing")
	}
	if rep.DetectionRatio <= 0 || rep.MeanTTD <= 0 {
		t.Fatalf("empty derived stats: ratio=%v ttd=%v", rep.DetectionRatio, rep.MeanTTD)
	}
	if !strings.Contains(rep.String(), "faults:") {
		t.Fatalf("Report.String() missing fault clause: %s", rep)
	}
	// The injector's counters flow through the shared registry.
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fault.injected", "fault.time_to_detection"} {
		if !bytes.Contains(buf.Bytes(), []byte(name)) {
			t.Fatalf("snapshot missing %s:\n%s", name, buf.Bytes())
		}
	}
}

// TestNewMatchesNewFromConfig is the contract between the two
// constructors: the same settings expressed as a Config and as
// functional options must build systems that report identically after
// identical runs.
func TestNewMatchesNewFromConfig(t *testing.T) {
	small := disk.DemoSmall()
	model := fault.Bursty{RatePerHour: 720, MeanBurst: 4, ClusterSectors: 1024}
	retry := blockdev.RetryPolicy{MaxRetries: 1, Backoff: time.Millisecond}

	old, err := NewFromConfig(Config{
		Model:         &small,
		Algorithm:     Staggered,
		Policy:        PolicyWaiting,
		WaitThreshold: 50 * time.Millisecond,
		AutoRepair:    true,
		Escalate:      true,
		Retry:         retry,
		Faults:        model,
		FaultSeed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	new_, err := New(&small,
		WithAlgorithm(Staggered),
		WithPolicy(PolicyWaiting),
		WithWaitThreshold(50*time.Millisecond),
		WithAutoRepair(),
		WithEscalation(),
		WithRetryPolicy(retry),
		WithFaults(model),
		WithFaultSeed(3),
	)
	if err != nil {
		t.Fatal(err)
	}

	for _, sys := range []*System{old, new_} {
		sys.Start()
		if err := sys.RunFor(context.Background(), 10*time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	a, b := old.Report(), new_.Report()
	if a != b {
		t.Fatalf("reports diverge:\nNewFromConfig: %+v\nNew:           %+v", a, b)
	}
	if a.LSEsInjected == 0 {
		t.Fatal("compat run injected nothing; the comparison proves nothing")
	}
	// The defaulted configs agree on every scalar knob.
	ca, cb := old.Config(), new_.Config()
	if ca.Policy != cb.Policy || ca.Algorithm != cb.Algorithm ||
		ca.WaitThreshold != cb.WaitThreshold || ca.AutoRepair != cb.AutoRepair ||
		ca.Escalate != cb.Escalate || ca.Retry != cb.Retry || ca.FaultSeed != cb.FaultSeed {
		t.Fatalf("configs diverge:\nNewFromConfig: %+v\nNew:           %+v", ca, cb)
	}
}

// faultSystems builds n instrumented fault-injected systems with
// deterministic per-index seeds.
func faultSystems(t *testing.T, n int) ([]*System, []*obs.Registry) {
	t.Helper()
	systems := make([]*System, n)
	regs := make([]*obs.Registry, n)
	small := disk.DemoSmall()
	for i := range systems {
		sys, err := New(&small,
			WithPolicy(PolicyWaiting),
			WithWaitThreshold(50*time.Millisecond),
			WithFaults(fault.Bursty{RatePerHour: 720, MeanBurst: 4, ClusterSectors: 1024}),
			WithFaultSeed(int64(i+1)),
			WithAutoRepair(),
		)
		if err != nil {
			t.Fatal(err)
		}
		regs[i] = obs.New()
		sys.Instrument(regs[i])
		sys.Start()
		systems[i] = sys
	}
	return systems, regs
}

// TestFaultInjectionParallelDeterminism is the determinism proof for the
// fault path: running fault-injected systems over 8 workers (under -race
// in CI) produces, system for system, byte-identical metric snapshots to
// a 1-worker run with the same seeds.
func TestFaultInjectionParallelDeterminism(t *testing.T) {
	const n = 3
	run := func(workers int) [][]byte {
		systems, regs := faultSystems(t, n)
		err := par.ForEach(context.Background(), workers, n, func(ctx context.Context, i int) error {
			return systems[i].RunFor(ctx, 10*time.Minute)
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, n)
		for i, reg := range regs {
			var buf bytes.Buffer
			if err := reg.Snapshot().WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
			out[i] = buf.Bytes()
		}
		return out
	}
	want := run(1)
	got := run(8)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("system %d: snapshots diverge between 1 and 8 workers\n1 worker:\n%s\n8 workers:\n%s", i, want[i], got[i])
		}
		if !bytes.Contains(want[i], []byte(`"fault.injected"`)) &&
			!bytes.Contains(want[i], []byte(`"name": "fault.injected"`)) {
			t.Fatalf("system %d snapshot has no fault.injected counter:\n%s", i, want[i])
		}
	}
}
