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
// the restorer supplies a stack of the same Config (NewFromConfig builds
// one; the fleet engine reuses one live stack per class) and Restore
// applies this state on top, which keeps a million parked members cheap.
//
//scrublint:snapshot System
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

	// Pending kick timer, when armed.
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

// Snapshot fills st with the full serializable state of a parked
// system. It reuses st's component states and their buffers, so a member
// parked slice after slice into the same SystemState allocates only for
// growth; nothing in st shares memory with the live stack.
func (sys *System) Snapshot(st *SystemState) error {
	if err := sys.Parkable(); err != nil {
		return err
	}
	st.Now, st.Seq, st.Fired = sys.Sim.Clock()
	switch dev := sys.Device.(type) {
	case *disk.Disk:
		st.Disk, st.SSD = reuse(st.Disk), nil
		dev.SaveState(st.Disk)
	case *disk.SSD:
		st.Disk, st.SSD = nil, reuse(st.SSD)
		dev.SaveState(st.SSD)
	default:
		return fmt.Errorf("core: device %T is not snapshotable", sys.Device)
	}
	st.Queue, st.CFQ, st.Scrub = reuse(st.Queue), reuse(st.CFQ), reuse(st.Scrub)
	if err := sys.Queue.SaveState(st.Queue, sys.classifyInflight); err != nil {
		return err
	}
	if err := sys.cfq.SaveState(st.CFQ); err != nil {
		return err
	}
	if err := sys.Scrubber.SaveState(st.Scrub); err != nil {
		return err
	}
	if sys.Faults == nil {
		st.Fault = nil
	} else {
		st.Fault = reuse(st.Fault)
		if err := sys.Faults.SaveState(st.Fault); err != nil {
			return err
		}
	}
	st.HasKick, st.KickAt, st.KickSeq = sys.kickTimer.Record()
	if w, ok := sys.policy.(*schedpolicy.Waiting); ok {
		st.Policy = reuse(st.Policy)
		w.SaveState(st.Policy)
	} else {
		st.Policy = nil
	}
	return nil
}

// reuse returns p, or a new T when p is nil.
func reuse[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// Restore overwrites the system in place with a snapshot taken from a
// system of the same Config, its fault stream seeded with faultSeed (0
// means 1, as in Config.FaultSeed). The system may be fresh from build
// or may have run another member to any point — parked or not: the
// clock restores first and discards every pending event, then every
// component overwrites all of its state, and each re-enqueued event
// keeps its recorded sequence number. This is the only restore path:
// the fleet engine restores member after member onto one live stack.
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
	if err := sys.kickTimer.Restore(st.HasKick, st.KickAt, st.KickSeq); err != nil {
		return fmt.Errorf("core: restore kick timer: %w", err)
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
