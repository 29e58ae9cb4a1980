package scrub

import (
	"fmt"
	"sort"
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

// Extent is one pending re-scrub range in a snapshot.
type Extent struct {
	LBA, Sectors int64
}

// State is the compact serializable state of a Scrubber. Configuration
// (algorithm sizing, mode, class, delay, size function) is not embedded;
// the restorer rebuilds the scrubber from the same Config and applies
// this state on top.
type State struct {
	Firing          bool
	Inflight        bool
	InflightRescrub bool
	FireStart       time.Duration
	FireCount       int
	RepairsLeft     int

	// Pending delayed-reissue timer, when armed.
	HasPending bool
	PendingAt  time.Duration
	PendingSeq uint64

	Rescrub   []Extent
	Escalated []int64 // sorted region starts already escalated this pass
	Cursor    AlgCursor
	Stats     Stats
}

// State captures the scrubber's serializable state. It fails when the
// algorithm cannot save its cursor or when user hooks (OnLSE, OnRepair,
// OnPass) are installed — hooks are arbitrary closures a snapshot cannot
// carry.
func (sc *Scrubber) State() (*State, error) {
	saver, ok := sc.cfg.Algorithm.(CursorSaver)
	if !ok {
		return nil, fmt.Errorf("scrub: algorithm %q does not support cursor save", sc.cfg.Algorithm.Name())
	}
	if sc.OnLSE != nil || sc.OnRepair != nil || sc.OnPass != nil {
		return nil, fmt.Errorf("scrub: cannot snapshot a scrubber with user hooks installed")
	}
	st := &State{
		Firing:          sc.firing,
		Inflight:        sc.inflight,
		InflightRescrub: sc.inflight && sc.inflightRescrub,
		FireStart:       sc.fireStart,
		FireCount:       sc.fireCount,
		RepairsLeft:     sc.repairsLeft,
		Cursor:          saver.SaveCursor(),
		Stats:           sc.stats,
	}
	if sc.pending != nil {
		st.HasPending = true
		st.PendingAt = sc.pending.At()
		st.PendingSeq = sc.pending.Seq()
	}
	for _, e := range sc.rescrub {
		if e.sectors > 0 {
			st.Rescrub = append(st.Rescrub, Extent{LBA: e.lba, Sectors: e.sectors})
		}
	}
	for start := range sc.escalated {
		st.Escalated = append(st.Escalated, start)
	}
	sort.Slice(st.Escalated, func(i, j int) bool { return st.Escalated[i] < st.Escalated[j] })
	return st, nil
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
	sc.firing = st.Firing
	sc.inflight = st.Inflight
	sc.inflightRescrub = st.InflightRescrub
	sc.fireStart = st.FireStart
	sc.fireCount = st.FireCount
	sc.repairsLeft = st.RepairsLeft
	sc.stats = st.Stats
	sc.rescrub = sc.rescrub[:0]
	for _, e := range st.Rescrub {
		sc.rescrub = append(sc.rescrub, extent{lba: e.LBA, sectors: e.Sectors})
	}
	clear(sc.escalated)
	for _, start := range st.Escalated {
		if sc.escalated == nil {
			sc.escalated = make(map[int64]bool)
		}
		sc.escalated[start] = true
	}
	sc.pending = nil
	if st.HasPending {
		ev, err := sc.sim.RestoreAt(st.PendingAt, st.PendingSeq, sc.delayFn)
		if err != nil {
			return fmt.Errorf("scrub: restore delay timer: %w", err)
		}
		sc.pending = ev
	}
	return nil
}

// InflightKind classifies the scrub request currently on the device (or
// queued behind it, for repair bursts): the callback identity a queue
// snapshot needs. KindNone means the scrubber has nothing outstanding.
func (sc *Scrubber) InflightKind() CompletionKind {
	switch {
	case sc.inflight && sc.inflightRescrub:
		return KindRescrub
	case sc.inflight:
		return KindVerify
	case sc.repairsLeft > 0:
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
