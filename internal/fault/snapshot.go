package fault

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// ArrivalRec is one planted, not-yet-detected sector in a snapshot.
type ArrivalRec struct {
	LBA int64
	At  time.Duration
}

// InjectorState is the injector's live state, and gob-encoded it is the
// compact serializable state of a parked one: RNG stream position (seed
// is implied — the restorer supplies it), the one burst pulled ahead of
// the clock with its pending event's (at, seq) identity, and the
// lifecycle maps in sorted order. Restoring it onto an injector of the
// same model with the same seed reproduces the original's future
// exactly. A live injector does not read the stream position, the event
// record or the sorted lifecycle lists: the source, the arrival timer and
// the maps hold those, and SaveState records them.
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

// SaveState copies the injector's state into dst, reusing dst's slices.
// It fails if the arrival source does not support position capture (all
// built-in models do).
func (in *Injector) SaveState(dst *InjectorState) error {
	ps, ok := in.src.(PosSource)
	if !ok {
		return fmt.Errorf("fault: source %T does not support position capture", in.src)
	}
	lbas, arrival, detected := dst.NextLBAs[:0], dst.Arrival[:0], dst.Detected[:0]
	*dst = in.st
	dst.Draws, dst.SrcNow = ps.Pos()
	_, dst.EvAt, dst.EvSeq = in.next.Record()
	for lba, at := range in.arrival {
		arrival = append(arrival, ArrivalRec{LBA: lba, At: at})
	}
	slices.SortFunc(arrival, func(a, b ArrivalRec) int { return cmp.Compare(a.LBA, b.LBA) })
	for lba := range in.detected {
		detected = append(detected, lba)
	}
	slices.Sort(detected)
	dst.NextLBAs, dst.Arrival, dst.Detected = append(lbas, in.st.NextLBAs...), arrival, detected
	return nil
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
	lbas := in.st.NextLBAs[:0]
	in.st = *st
	in.st.NextLBAs = append(lbas, st.NextLBAs...)
	in.st.Arrival, in.st.Detected = nil, nil
	clear(in.arrival)
	for _, a := range st.Arrival {
		in.arrival[a.LBA] = a.At
	}
	clear(in.detected)
	for _, lba := range st.Detected {
		in.detected[lba] = true
	}
	if err := in.next.Restore(st.HasNext, st.EvAt, st.EvSeq); err != nil {
		return fmt.Errorf("fault: restore arrival event: %w", err)
	}
	return nil
}
