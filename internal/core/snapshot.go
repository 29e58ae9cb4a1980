package core

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/iosched"
	"repro/internal/schedpolicy"
	"repro/internal/scrub"
)

// SystemState is the compact serializable state of a parked System: the
// kernel clock plus one sub-state per component, each carrying its own
// pending events as (at, seq) records. Configuration is not embedded —
// the restorer supplies a stack of the same Config (RestoreSystem builds
// one; the fleet engine reuses one live stack per class) and Restore
// applies this state on top, which keeps a million parked members cheap.
type SystemState struct {
	Now   time.Duration
	Seq   uint64
	Fired uint64

	Disk  *disk.State    // rotational device state (nil for SSD systems)
	SSD   *disk.SSDState // solid-state device state (nil for disk systems)
	Queue *blockdev.QState
	CFQ   *iosched.CFQState
	Scrub *scrub.State
	Fault *fault.InjectorState // nil when built without WithFaults

	// Pending Kick timer, when armed.
	HasKick bool
	KickAt  time.Duration
	KickSeq uint64

	Policy *schedpolicy.WaitingState // nil unless PolicyWaiting
}

// Parkable reports (as a nil error) whether the system is at a state a
// snapshot can represent: elevator drained, no barrier, any in-flight
// request classifiable as the scrubber's, and a scheduling policy without
// hidden state. A non-parkable system becomes parkable after a handful of
// events — the fleet engine steps it forward until this returns nil.
func (sys *System) Parkable() error {
	if !sys.Queue.Quiesced() {
		return fmt.Errorf("core: %d requests queued", sys.Queue.Pending())
	}
	if r := sys.Queue.Inflight(); r != nil {
		if r.MergedCount() > 0 {
			return fmt.Errorf("core: in-flight request carries merged requests")
		}
		if sys.Scrubber.InflightKind() == scrub.KindNone {
			return fmt.Errorf("core: in-flight request is not the scrubber's")
		}
	}
	return sys.serializable()
}

// serializable reports (as a nil error) whether every stateful part of
// the stack has a snapshot form: the scheduling policy carries no hidden
// predictor state and the elevator is CFQ.
func (sys *System) serializable() error {
	switch sys.policy.(type) {
	case nil, *schedpolicy.Waiting:
	default:
		return fmt.Errorf("core: policy %s carries unserializable predictor state", sys.policy.Name())
	}
	if sys.cfq == nil {
		return fmt.Errorf("core: scheduler %q has no serializable state; only cfq systems park", sys.cfg.Sched)
	}
	return nil
}

// classifyInflight maps the in-flight request to the scrubber completion
// kind that owns its callback. Fleet members run no foreground workload,
// so every in-flight request must be the scrubber's.
func (sys *System) classifyInflight(r *blockdev.Request) (uint8, error) {
	k := sys.Scrubber.InflightKind()
	if k == scrub.KindNone {
		return 0, fmt.Errorf("core: in-flight request is not the scrubber's")
	}
	return uint8(k), nil
}

// Snapshot captures the full serializable state of a parked system.
func (sys *System) Snapshot() (*SystemState, error) {
	if err := sys.Parkable(); err != nil {
		return nil, err
	}
	now, seq, fired := sys.Sim.Clock()
	st := &SystemState{Now: now, Seq: seq, Fired: fired}
	switch dev := sys.Device.(type) {
	case *disk.Disk:
		st.Disk = dev.State()
	case *disk.SSD:
		st.SSD = dev.State()
	default:
		return nil, fmt.Errorf("core: device %T is not snapshotable", sys.Device)
	}
	var err error
	if st.Queue, err = sys.Queue.State(sys.classifyInflight); err != nil {
		return nil, err
	}
	if st.CFQ, err = sys.cfq.State(); err != nil {
		return nil, err
	}
	if st.Scrub, err = sys.Scrubber.State(); err != nil {
		return nil, err
	}
	if sys.Faults != nil {
		if st.Fault, err = sys.Faults.State(); err != nil {
			return nil, err
		}
	}
	if sys.kickEv != nil {
		st.HasKick = true
		st.KickAt = sys.kickEv.At()
		st.KickSeq = sys.kickEv.Seq()
	}
	if w, ok := sys.policy.(*schedpolicy.Waiting); ok {
		st.Policy = w.State()
	}
	return st, nil
}

// RestoreSystem rebuilds a parked system: a fresh stack from the same
// Config (wiring order identical to New, so subscriber order — and with
// it determinism — is preserved), then Restore applies the snapshot on
// top with the Config's fault seed.
func RestoreSystem(cfg Config, st *SystemState) (*System, error) {
	sys, err := build(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.Restore(st, cfg.FaultSeed); err != nil {
		return nil, err
	}
	return sys, nil
}

// Restore overwrites the system in place with a snapshot taken from a
// system of the same Config, its fault stream seeded with faultSeed (0
// means 1, as in Config.FaultSeed). The system may be fresh from build
// or may have run another member to any point — parked or not: the
// clock restores first and discards every pending event, then every
// component overwrites all of its state, and each re-enqueued event
// keeps its recorded sequence number. This is the only restore path:
// RestoreSystem is a build followed by Restore, and the fleet engine
// restores member after member onto one live stack.
func (sys *System) Restore(st *SystemState, faultSeed int64) error {
	if err := sys.serializable(); err != nil {
		return err
	}
	if faultSeed == 0 {
		faultSeed = 1
	}
	sys.cfg.FaultSeed = faultSeed
	sys.Sim.RestoreClock(st.Now, st.Seq, st.Fired)
	switch dev := sys.Device.(type) {
	case *disk.Disk:
		if st.Disk == nil {
			return fmt.Errorf("core: snapshot carries no rotational state for %s", dev.ModelName())
		}
		dev.RestoreState(st.Disk)
	case *disk.SSD:
		if st.SSD == nil {
			return fmt.Errorf("core: snapshot carries no SSD state for %s", dev.ModelName())
		}
		dev.RestoreState(st.SSD)
	default:
		return fmt.Errorf("core: device %T is not snapshotable", sys.Device)
	}
	if err := sys.cfq.RestoreState(st.CFQ); err != nil {
		return err
	}
	if err := sys.Scrubber.RestoreState(st.Scrub); err != nil {
		return err
	}
	// The queue restores after the scrubber so callback resolution sees
	// the restored in-flight classification.
	if err := sys.Queue.RestoreState(st.Queue, func(kind uint8) func(*blockdev.Request) {
		return sys.Scrubber.CallbackFor(scrub.CompletionKind(kind))
	}); err != nil {
		return err
	}
	if st.Fault != nil {
		if sys.Faults == nil {
			return fmt.Errorf("core: snapshot carries fault state but config has no fault model")
		}
		if err := sys.Faults.RestoreState(st.Fault, faultSeed); err != nil {
			return err
		}
	} else if sys.Faults != nil {
		return fmt.Errorf("core: config has a fault model but snapshot carries no fault state")
	}
	sys.kickEv = nil
	if st.HasKick {
		ev, err := sys.Sim.RestoreAt(st.KickAt, st.KickSeq, sys.kickFn)
		if err != nil {
			return fmt.Errorf("core: restore kick timer: %w", err)
		}
		sys.kickEv = ev
	}
	w, isWaiting := sys.policy.(*schedpolicy.Waiting)
	switch {
	case st.Policy != nil && !isWaiting:
		return fmt.Errorf("core: snapshot carries waiting-policy state but config policy is %v", sys.cfg.Policy)
	case st.Policy == nil && isWaiting:
		return fmt.Errorf("core: config policy is %v but snapshot carries no waiting-policy state", sys.cfg.Policy)
	case isWaiting:
		return w.RestoreState(st.Policy)
	}
	return nil
}
