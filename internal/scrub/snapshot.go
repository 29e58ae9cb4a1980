package scrub

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/blockdev"
)

// CompletionKind names which prebuilt completion callback a pooled scrub
// request carries. The block layer cannot serialize a callback; a
// snapshot records the kind instead and restore re-attaches the matching
// prebuilt function.
type CompletionKind uint8

const (
	// KindNone marks no scrub request outstanding.
	KindNone CompletionKind = iota
	// KindVerify marks a regular algorithm-stream VERIFY (onVerify).
	KindVerify
	// KindRescrub marks an escalated region re-verify (onRescrub).
	KindRescrub
	// KindRepair marks an AutoRepair write (onRepair).
	KindRepair
)

// Extent is one pending re-scrub range.
type Extent struct {
	LBA, Sectors int64
}

// State is the scrubber's live state, and gob-encoded it is the compact
// serializable state of a parked one. Configuration (algorithm sizing,
// mode, class, delay, size function) is not embedded; the restorer
// rebuilds the scrubber from the same Config and applies this state on
// top. A live scrubber does not read Cursor, the pending-timer record or
// Escalated: the algorithm, the delay timer and the escalated-region map
// hold those, and SaveState records them.
type State struct {
	Firing   bool
	Inflight bool
	// InflightRescrub marks the in-flight verify as an escalated re-scrub
	// (its completion runs onRescrub, not onVerify): the one bit a
	// snapshot needs to re-attach the right callback on restore.
	InflightRescrub bool
	FireStart       time.Duration
	FireCount       int
	// RepairsLeft counts outstanding AutoRepair writes; the scrub stream
	// resumes when it reaches zero.
	RepairsLeft int

	// Pending delayed-reissue timer, when armed.
	HasPending bool
	PendingAt  time.Duration
	PendingSeq uint64

	// Rescrub holds the pending re-scrub extents, served before the
	// algorithm stream.
	Rescrub   []Extent
	Escalated []int64 // sorted region starts already escalated this pass
	Cursor    AlgCursor
	Stats     Stats
}

// SaveState copies the scrubber's state into dst, reusing dst's slices.
// It fails when the algorithm cannot save its cursor or when user hooks
// (OnLSE, OnRepair, OnPass) are installed — hooks are arbitrary closures
// a snapshot cannot carry. The record is normalised: InflightRescrub is
// set only with a verify in flight, and exhausted re-scrub extents are
// dropped.
func (sc *Scrubber) SaveState(dst *State) error {
	saver, ok := sc.cfg.Algorithm.(CursorSaver)
	if !ok {
		return fmt.Errorf("scrub: algorithm %q does not support cursor save", sc.cfg.Algorithm.Name())
	}
	if sc.OnLSE != nil || sc.OnRepair != nil || sc.OnPass != nil {
		return fmt.Errorf("scrub: cannot snapshot a scrubber with user hooks installed")
	}
	rescrub, escalated := dst.Rescrub[:0], dst.Escalated[:0]
	*dst = sc.st
	dst.InflightRescrub = sc.st.Inflight && sc.st.InflightRescrub
	dst.HasPending, dst.PendingAt, dst.PendingSeq = sc.delay.Record()
	dst.Cursor = saver.SaveCursor()
	for _, e := range sc.st.Rescrub {
		if e.Sectors > 0 {
			rescrub = append(rescrub, e)
		}
	}
	for start := range sc.escalated {
		escalated = append(escalated, start)
	}
	slices.Sort(escalated)
	dst.Rescrub, dst.Escalated = rescrub, escalated
	return nil
}

// RestoreState overwrites the scrubber with a snapshot taken from a
// scrubber of the same Config; the scrubber may be fresh or may have run
// another member. The simulator clock must already be restored so the
// pending timer's sequence number is in range.
func (sc *Scrubber) RestoreState(st *State) error {
	saver, ok := sc.cfg.Algorithm.(CursorSaver)
	if !ok {
		return fmt.Errorf("scrub: algorithm %q does not support cursor restore", sc.cfg.Algorithm.Name())
	}
	saver.LoadCursor(st.Cursor)
	rescrub := sc.st.Rescrub[:0]
	sc.st = *st
	sc.st.Rescrub = append(rescrub, st.Rescrub...)
	sc.st.Escalated = nil
	clear(sc.escalated)
	for _, start := range st.Escalated {
		if sc.escalated == nil {
			sc.escalated = make(map[int64]bool)
		}
		sc.escalated[start] = true
	}
	if err := sc.delay.Restore(st.HasPending, st.PendingAt, st.PendingSeq); err != nil {
		return fmt.Errorf("scrub: restore delay timer: %w", err)
	}
	return nil
}

// InflightKind classifies the scrub request currently on the device (or
// queued behind it, for repair bursts): the callback identity a queue
// snapshot needs. KindNone means the scrubber has nothing outstanding.
func (sc *Scrubber) InflightKind() CompletionKind {
	switch {
	case sc.st.Inflight && sc.st.InflightRescrub:
		return KindRescrub
	case sc.st.Inflight:
		return KindVerify
	case sc.st.RepairsLeft > 0:
		return KindRepair
	default:
		return KindNone
	}
}

// CallbackFor returns the prebuilt completion callback for a kind, for
// re-attaching to a restored in-flight request.
func (sc *Scrubber) CallbackFor(k CompletionKind) func(*blockdev.Request) {
	switch k {
	case KindVerify:
		return sc.onVerify
	case KindRescrub:
		return sc.onRescrub
	case KindRepair:
		return sc.onRepair
	default:
		return nil
	}
}
