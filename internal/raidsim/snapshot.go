package raidsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/iosched"
)

// MemberState is the serializable state of one member drive and its
// queue/elevator stack.
type MemberState struct {
	Disk  *disk.State
	Queue *blockdev.QState
	CFQ   *iosched.CFQState
}

// GroupState is the serializable state of a parked Group: clock, every
// member stack, the spare, and the rebuild/scrub walk positions. Like
// the core engine's SystemState it is only capturable at quiescent
// points — nothing inflight, elevators drained, no rebuild or scrub
// sub-requests outstanding. A Waiting-paced rebuild parks naturally at
// its hold points (foreground busy, or timer armed waiting for idle);
// back-to-back walks never go idle mid-run and must finish first.
type GroupState struct {
	Now   time.Duration
	Seq   uint64
	Fired uint64

	Members []MemberState
	Spare   *MemberState
	Failed  int

	Rebuilding  bool
	RebuildHold bool
	RebuildRow  int64
	RebuildWait time.Duration
	HasTimer    bool
	TimerAt     time.Duration
	TimerSeq    uint64

	Stats Stats
}

// errBusy is returned by the snapshot classifier: no raidsim request is
// representable, so any inflight request makes the group unparkable.
func errBusy(*blockdev.Request) (uint8, error) {
	return 0, errors.New("raidsim: request inflight")
}

// State captures the group. It fails unless the group is quiescent.
func (g *Group) State() (*GroupState, error) {
	if g.rebuildActive != 0 || g.scrubActive != 0 || g.scrubbing {
		return nil, errors.New("raidsim: cannot snapshot with rebuild or scrub I/O outstanding")
	}
	if g.rebuilding && !g.rebuildHold && g.rebuildTimer == nil {
		return nil, errors.New("raidsim: cannot snapshot a back-to-back rebuild mid-walk")
	}
	now, seq, fired := g.sim.Clock()
	st := &GroupState{
		Now:         now,
		Seq:         seq,
		Fired:       fired,
		Failed:      g.failed,
		Rebuilding:  g.rebuilding,
		RebuildHold: g.rebuildHold,
		RebuildRow:  g.rebuildRow,
		RebuildWait: g.rebuildWait,
		Stats:       g.stats,
	}
	if g.rebuildTimer != nil && !g.rebuildTimer.Fired() {
		st.HasTimer = true
		st.TimerAt = g.rebuildTimer.At()
		st.TimerSeq = g.rebuildTimer.Seq()
	}
	for i, q := range g.members {
		ms, err := g.memberState(q, g.scheds[i])
		if err != nil {
			return nil, fmt.Errorf("raidsim: member %d: %w", i, err)
		}
		st.Members = append(st.Members, *ms)
	}
	if g.spare != nil {
		ms, err := g.memberState(g.spare, g.spareSched)
		if err != nil {
			return nil, fmt.Errorf("raidsim: spare: %w", err)
		}
		st.Spare = ms
	}
	return st, nil
}

func (g *Group) memberState(q *blockdev.Queue, sched *iosched.CFQ) (*MemberState, error) {
	qs, err := q.State(errBusy)
	if err != nil {
		return nil, err
	}
	cs, err := sched.State()
	if err != nil {
		return nil, err
	}
	d, ok := q.Disk().(*disk.Disk)
	if !ok {
		return nil, fmt.Errorf("raidsim: member device %T is not snapshotable", q.Disk())
	}
	return &MemberState{Disk: d.State(), Queue: qs, CFQ: cs}, nil
}

// noResolve is the QState restore callback-resolver: a quiescent
// snapshot carries no requests, so no callback tags ever resolve.
func noResolve(uint8) func(*blockdev.Request) { return nil }

// RestoreGroup rebuilds a group from a snapshot. done replaces the
// rebuild-completion callback (callbacks cannot be serialized); pass nil
// to drop it.
func RestoreGroup(cfg Config, st *GroupState, done func(now time.Duration)) (*Group, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if len(st.Members) != len(g.members) {
		return nil, fmt.Errorf("raidsim: snapshot has %d members, config %d", len(st.Members), len(g.members))
	}
	g.sim.RestoreClock(st.Now, st.Seq, st.Fired)
	for i := range g.members {
		if err := g.restoreMember(g.members[i], g.scheds[i], &st.Members[i]); err != nil {
			return nil, fmt.Errorf("raidsim: member %d: %w", i, err)
		}
	}
	if st.Failed >= 0 {
		if st.Spare == nil {
			return nil, errors.New("raidsim: snapshot has a failed member but no spare")
		}
		if err := g.FailDisk(st.Failed); err != nil {
			return nil, err
		}
		if err := g.restoreMember(g.spare, g.spareSched, st.Spare); err != nil {
			return nil, fmt.Errorf("raidsim: spare: %w", err)
		}
	}
	g.stats = st.Stats
	g.rebuilding = st.Rebuilding
	g.rebuildHold = st.RebuildHold
	g.rebuildRow = st.RebuildRow
	g.rebuildWait = st.RebuildWait
	g.rebuildDone = done
	if st.Rebuilding && st.RebuildWait > 0 {
		g.watchIdleness()
	}
	if st.HasTimer {
		ev, err := g.sim.RestoreAt(st.TimerAt, st.TimerSeq, g.rebuildTimerFn)
		if err != nil {
			return nil, err
		}
		g.rebuildTimer = ev
	}
	return g, nil
}

func (g *Group) restoreMember(q *blockdev.Queue, sched *iosched.CFQ, st *MemberState) error {
	d, ok := q.Disk().(*disk.Disk)
	if !ok {
		return fmt.Errorf("raidsim: member device %T is not snapshotable", q.Disk())
	}
	d.RestoreState(st.Disk)
	if err := sched.RestoreState(st.CFQ); err != nil {
		return err
	}
	return q.RestoreState(st.Queue, noResolve)
}

// rebuildTimerFn is the restored rebuild timer body (armRebuildTimer's
// closure, hoisted so RestoreAt can re-enqueue it).
func (g *Group) rebuildTimerFn() {
	g.rebuildTimer = nil
	if !g.rebuilding {
		return
	}
	g.rebuildHold = false
	if g.rebuildActive == 0 {
		g.rebuildStep()
	}
}
