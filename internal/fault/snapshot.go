package fault

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/disk"
	"repro/internal/sim"
)

// ArrivalRec is one planted, not-yet-detected sector in a snapshot.
type ArrivalRec struct {
	LBA int64
	At  time.Duration
}

// InjectorState is the compact serializable state of an Injector: RNG
// stream position (seed is implied — the restorer supplies it), the one
// burst pulled ahead of the clock with its pending event's (at, seq)
// identity, and the lifecycle maps in sorted order. Restoring it onto an
// injector of the same model with the same seed reproduces the
// original's future exactly.
type InjectorState struct {
	Started bool

	// RNG stream position of the arrival source.
	Draws  uint64
	SrcNow time.Duration

	// The pulled-ahead burst and its pending event identity.
	HasNext  bool
	NextAt   time.Duration
	NextLBAs []int64
	EvAt     time.Duration
	EvSeq    uint64

	Arrival  []ArrivalRec // sorted by LBA
	Detected []int64      // sorted
	Stats    Stats
}

// State captures the injector's serializable state. It fails if the
// arrival source does not support position capture (all built-in models
// do).
func (in *Injector) State() (*InjectorState, error) {
	ps, ok := in.src.(PosSource)
	if !ok {
		return nil, fmt.Errorf("fault: source %T does not support position capture", in.src)
	}
	draws, srcNow := ps.Pos()
	st := &InjectorState{
		Started: in.started,
		Draws:   draws,
		SrcNow:  srcNow,
		Stats:   in.stats,
	}
	if in.hasNext {
		st.HasNext = true
		st.NextAt = in.next.At
		st.NextLBAs = append([]int64(nil), in.next.LBAs...)
		st.EvAt = in.nextEv.At()
		st.EvSeq = in.nextEv.Seq()
	}
	for lba, at := range in.arrival {
		st.Arrival = append(st.Arrival, ArrivalRec{LBA: lba, At: at})
	}
	sort.Slice(st.Arrival, func(i, j int) bool { return st.Arrival[i].LBA < st.Arrival[j].LBA })
	for lba := range in.detected {
		st.Detected = append(st.Detected, lba)
	}
	sort.Slice(st.Detected, func(i, j int) bool { return st.Detected[i] < st.Detected[j] })
	return st, nil
}

// RestoreState overwrites the injector with a snapshot taken from an
// injector of the same model whose stream was seeded with seed. The
// injector may be fresh or may have run another stream: every field is
// replaced, and the RNG is only reseeded at its next draw. The disk's
// LSE set travels in the disk snapshot, so restore does not re-plant.
// The caller must have restored the simulator clock first so the
// pending arrival event's sequence number is in range.
func (in *Injector) RestoreState(st *InjectorState, seed int64) error {
	ps, ok := in.src.(PosSource)
	if !ok {
		return fmt.Errorf("fault: source %T does not support position restore", in.src)
	}
	ps.SetPos(seed, st.Draws, st.SrcNow)
	in.started = st.Started
	in.stats = st.Stats
	clear(in.arrival)
	for _, a := range st.Arrival {
		in.arrival[a.LBA] = a.At
	}
	clear(in.detected)
	for _, lba := range st.Detected {
		in.detected[lba] = true
	}
	// The pulled-ahead burst's LBA buffer is the injector's own (State
	// copies it out), so it is reused.
	lbas := in.next.LBAs[:0]
	in.next, in.hasNext, in.nextEv = Burst{}, false, nil
	if st.HasNext {
		in.next = Burst{At: st.NextAt, LBAs: append(lbas, st.NextLBAs...)}
		in.hasNext = true
		ev, err := in.sim.RestoreAt(st.EvAt, st.EvSeq, in.fireFn)
		if err != nil {
			return fmt.Errorf("fault: restore arrival event: %w", err)
		}
		in.nextEv = ev
	}
	return nil
}

// RestoreInjector rebuilds an injector from a snapshot. The model and
// seed must match the original's.
func RestoreInjector(s *sim.Simulator, d *disk.Disk, m Model, seed int64, st *InjectorState) (*Injector, error) {
	in := NewInjector(s, d, m, seed)
	if err := in.RestoreState(st, seed); err != nil {
		return nil, err
	}
	return in, nil
}
