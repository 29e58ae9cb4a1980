// Package raidsim simulates a RAID-5 group on the event-driven storage
// stack: striped logical I/O over member disks, degraded-mode
// reconstruction reads, and a spare rebuild that can be paced either
// back-to-back (fast, intrusive) or by the paper's Waiting discipline
// (fire only after the whole group has been idle for a threshold). It
// realizes two threads of the paper: the introduction's data-loss-during-
// reconstruction motivation, and the conclusion's observation that the
// idle-time scheduling framework applies to "guaranteeing availability"
// background work, not just scrubbing.
package raidsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/iosched"
	"repro/internal/sim"
)

// Layout selects how parity stripes map onto members.
type Layout int

const (
	// LayoutClustered is the classical RAID-5 layout: every stripe spans
	// all Disks members with left-symmetric parity rotation.
	LayoutClustered Layout = iota
	// LayoutDeclustered spreads width-k stripes over n > k members with
	// a rotated sliding window (Thomasian, arXiv 2306.08763): each row r
	// occupies members (r mod n)+i mod n for i in [0, k), parity rotating
	// within the window. A rebuild touches only the k/n fraction of rows
	// holding the failed member and reads k-1 units per row, so rebuild
	// reads spread across the whole array instead of hammering every
	// survivor end to end.
	LayoutDeclustered
)

// String names the layout for flags and reports.
func (l Layout) String() string {
	if l == LayoutDeclustered {
		return "declustered"
	}
	return "clustered"
}

// Config assembles a Group.
type Config struct {
	// Disks is the member count including parity (>= 3 for RAID-5).
	Disks int
	// Model is the member drive model.
	Model disk.Model
	// StripeSectors is the stripe-unit size per disk (default 128 = 64 KB).
	StripeSectors int64
	// Layout selects stripe placement (default LayoutClustered).
	Layout Layout
	// StripeWidth is the stripe width k (data + parity) for declustered
	// layouts; it must satisfy 3 <= k < Disks. Clustered layouts ignore
	// it (the width is always Disks).
	StripeWidth int
}

// Group is a RAID-5 redundancy group.
type Group struct {
	sim        *sim.Simulator
	cfg        Config
	width      int // stripe width k (== Disks when clustered)
	members    []*blockdev.Queue
	scheds     []*iosched.CFQ
	failed     int // index of the failed member, -1 if none
	spare      *blockdev.Queue
	spareSched *iosched.CFQ

	rowsTotal int64 // derived from member geometry at construction

	// Rebuild state.
	rebuildRow    int64
	rebuilding    bool
	rebuildHold   bool
	rebuildDone   func(now time.Duration)
	rebuildWait   time.Duration // Waiting threshold; 0 = back-to-back
	rebuildTimer  sim.Timer
	rebuildActive int  // outstanding rebuild sub-requests
	idleWatched   bool // idleness subscriptions installed

	// Scrub state (see StartScrub).
	scrubRow    int64
	scrubbing   bool
	scrubActive int // outstanding scrub sub-requests
	scrubDone   func(now time.Duration)

	// injectors holds one fault injector per member (see InjectFaults).
	injectors []*fault.Injector

	stats Stats
}

// Stats aggregates group activity.
type Stats struct {
	LogicalReads  int64
	LogicalWrites int64
	DegradedReads int64
	RebuildRows   int64
	// UnrecoverableStripes counts rebuild rows where a survivor returned a
	// latent sector error: data lost to the LSE-during-reconstruction mode
	// the paper's introduction describes. Scrubbing exists to keep this
	// zero.
	UnrecoverableStripes int64
	// LSEsHitDuringRebuild counts the individual errors encountered.
	LSEsHitDuringRebuild int64
	// UnrecoverableReads counts degraded logical reads where a survivor's
	// reconstruction read hit a latent sector error — the same loss mode
	// as UnrecoverableStripes, surfaced through the foreground path.
	UnrecoverableReads int64
	// LSEsHitDegraded counts the individual errors those reads saw.
	LSEsHitDegraded int64
	RebuildStarted  time.Duration
	RebuildFinished time.Duration
	// ScrubbedRows counts rows whose every live unit was verified by the
	// group scrub; ScrubLSEsFound counts the latent errors those VERIFYs
	// surfaced (before a rebuild could trip over them).
	ScrubbedRows   int64
	ScrubLSEsFound int64
	ScrubFinished  time.Duration
}

// Member exposes a member queue for fault injection and inspection.
func (g *Group) Member(i int) *blockdev.Queue {
	if i < 0 || i >= len(g.members) {
		return nil
	}
	return g.members[i]
}

// New builds a Group over a fresh simulator.
func New(cfg Config) (*Group, error) {
	if cfg.Disks < 3 {
		return nil, errors.New("raidsim: RAID-5 needs >= 3 disks")
	}
	if cfg.StripeSectors <= 0 {
		cfg.StripeSectors = 128
	}
	width := cfg.Disks
	switch cfg.Layout {
	case LayoutClustered:
		if cfg.StripeWidth != 0 && cfg.StripeWidth != cfg.Disks {
			return nil, errors.New("raidsim: clustered layout has width == Disks; leave StripeWidth zero")
		}
	case LayoutDeclustered:
		if cfg.StripeWidth < 3 || cfg.StripeWidth >= cfg.Disks {
			return nil, errors.New("raidsim: declustered layout needs 3 <= StripeWidth < Disks")
		}
		width = cfg.StripeWidth
	default:
		return nil, fmt.Errorf("raidsim: unknown layout %d", cfg.Layout)
	}
	s := sim.New()
	g := &Group{sim: s, cfg: cfg, width: width, failed: -1}
	g.rebuildTimer.Init(s, g.rebuildTimerFn)
	for i := 0; i < cfg.Disks; i++ {
		d, err := disk.New(cfg.Model)
		if err != nil {
			return nil, fmt.Errorf("raidsim: member %d: %w", i, err)
		}
		sched := iosched.NewCFQ()
		g.scheds = append(g.scheds, sched)
		g.members = append(g.members, blockdev.NewQueue(s, d, sched))
	}
	memberSectors := g.members[0].Disk().Sectors()
	g.rowsTotal = memberSectors / cfg.StripeSectors
	return g, nil
}

// declustered reports whether the sliding-window mapping is active.
func (g *Group) declustered() bool { return g.cfg.Layout == LayoutDeclustered }

// rowHasMember reports whether member m holds a unit of row r: in the
// clustered layout every member does; declustered rows occupy the k
// members starting at (r mod n).
func (g *Group) rowHasMember(row int64, m int) bool {
	if !g.declustered() {
		return true
	}
	n := int64(g.cfg.Disks)
	d := (int64(m) - row%n + n) % n
	return d < int64(g.width)
}

// Sim exposes the group's simulator for driving workloads.
func (g *Group) Sim() *sim.Simulator { return g.sim }

// Stats returns a copy of the counters.
func (g *Group) Stats() Stats { return g.stats }

// DataSectors returns the logical capacity in sectors: k-1 data units
// per row. (The declustered mapping leaves n-k member slots per row
// unmapped — capacity traded for rebuild spread; the simulation models
// placement, not bin-packing.)
func (g *Group) DataSectors() int64 {
	return g.rowsTotal * g.cfg.StripeSectors * int64(g.width-1)
}

// locate maps a logical LBA to (row, member index, member LBA).
// Clustered rows use left-symmetric parity rotation over all members;
// declustered rows use the rotated sliding window with parity rotating
// within it. Member LBAs are row-aligned in both layouts, so a unit
// lives at the same offset on whichever member holds it.
//
//scrub:hotpath
func (g *Group) locate(lba int64) (row int64, member int, memberLBA int64) {
	u := g.cfg.StripeSectors
	k := int64(g.width)
	dataPerRow := u * (k - 1)
	row = lba / dataPerRow
	within := lba % dataPerRow
	dataIdx := within / u
	offset := within % u
	if !g.declustered() {
		parity := int(row % int64(g.cfg.Disks))
		// Data units fill the non-parity slots in order.
		slot := int(dataIdx)
		if slot >= parity {
			slot++
		}
		return row, slot, row*u + offset
	}
	n := int64(g.cfg.Disks)
	pIdx := row % k
	slot := dataIdx
	if slot >= pIdx {
		slot++
	}
	member = int((row%n + slot) % n)
	return row, member, row*u + offset
}

// parityMember returns the member holding a row's parity unit.
func (g *Group) parityMember(row int64) int {
	n := int64(g.cfg.Disks)
	if !g.declustered() {
		return int(row % n)
	}
	return int((row%n + row%int64(g.width)) % n)
}

// FailDisk marks one member as failed. Reads covering it become
// reconstruction reads; a subsequent Rebuild restores redundancy onto a
// fresh spare.
func (g *Group) FailDisk(index int) error {
	if index < 0 || index >= len(g.members) {
		return fmt.Errorf("raidsim: no member %d", index)
	}
	if g.failed >= 0 {
		return errors.New("raidsim: a member already failed (single-fault model)")
	}
	g.failed = index
	d, err := disk.New(g.cfg.Model)
	if err != nil {
		return err
	}
	g.spareSched = iosched.NewCFQ()
	g.spare = blockdev.NewQueue(g.sim, d, g.spareSched)
	return nil
}

// Read submits a logical read; done fires when every stripe unit has
// been served (reconstructing units of a failed member from the row's
// survivors).
func (g *Group) Read(lba, sectors int64, done func(now time.Duration)) error {
	return g.submit(lba, sectors, false, done)
}

// Write submits a logical write. Each touched unit incurs the RAID-5
// small-write penalty: read old data and parity, then write both.
func (g *Group) Write(lba, sectors int64, done func(now time.Duration)) error {
	return g.submit(lba, sectors, true, done)
}

func (g *Group) submit(lba, sectors int64, write bool, done func(now time.Duration)) error {
	if lba < 0 || sectors <= 0 || lba+sectors > g.DataSectors() {
		return fmt.Errorf("raidsim: extent [%d,+%d) outside data space", lba, sectors)
	}
	if write {
		g.stats.LogicalWrites++
	} else {
		g.stats.LogicalReads++
	}
	// Fan out per stripe unit; the logical request completes when the
	// last unit does.
	pending := 0
	fanDone := func(now time.Duration) {
		pending--
		if pending == 0 && done != nil {
			done(now)
		}
	}
	u := g.cfg.StripeSectors
	for sectors > 0 {
		row, member, mLBA := g.locate(lba)
		n := u - (mLBA % u)
		if n > sectors {
			n = sectors
		}
		if write {
			pending += g.writeUnit(row, member, mLBA, n, fanDone)
		} else {
			pending += g.readUnit(row, member, mLBA, n, fanDone)
		}
		lba += n
		sectors -= n
	}
	return nil
}

// readUnit issues the member reads for one unit and returns the number of
// pending completions registered (1: the logical unit completes when its
// last physical read lands).
func (g *Group) readUnit(row int64, member int, mLBA, n int64, done func(time.Duration)) int {
	if member != g.failed {
		g.issue(g.members[member], disk.OpRead, mLBA, n, done)
		return 1
	}
	// Degraded: reconstruct from the row's surviving members (every
	// other member in the clustered layout, the k-1 window mates when
	// declustered).
	g.stats.DegradedReads++
	remaining := 0
	for i := range g.members {
		if i == g.failed || !g.rowHasMember(row, i) {
			continue
		}
		remaining++
	}
	readLost := false
	cb := func(r *blockdev.Request) {
		if len(r.LSEs) > 0 {
			// A latent error on a survivor while the redundancy is gone:
			// this logical read cannot be reconstructed — observed data
			// loss through the foreground path.
			if !readLost {
				readLost = true
				g.stats.UnrecoverableReads++
			}
			g.stats.LSEsHitDegraded += int64(len(r.LSEs))
		}
		remaining--
		if remaining == 0 {
			done(r.Done)
		}
	}
	for i, q := range g.members {
		if i == g.failed || !g.rowHasMember(row, i) {
			continue
		}
		req := &blockdev.Request{
			Op: disk.OpRead, LBA: mLBA, Sectors: n,
			Class:  blockdev.ClassBE,
			Origin: blockdev.Foreground,
			Tag:    0,
		}
		req.OnComplete = cb
		q.Submit(req)
	}
	return 1
}

// writeUnit performs the small-write sequence for one unit: read old data
// and old parity in parallel, then write new data and new parity.
func (g *Group) writeUnit(row int64, member int, mLBA, n int64, done func(time.Duration)) int {
	parity := g.parityMember(row)
	targets := []int{member, parity}
	phase1 := 0
	for _, tgt := range targets {
		if tgt != g.failed {
			phase1++
		}
	}
	writeBack := func(now time.Duration) {
		remaining := 0
		for _, tgt := range targets {
			if tgt != g.failed {
				remaining++
			}
		}
		if remaining == 0 {
			done(now)
			return
		}
		cb := func(now time.Duration) {
			remaining--
			if remaining == 0 {
				done(now)
			}
		}
		for _, tgt := range targets {
			if tgt != g.failed {
				g.issue(g.members[tgt], disk.OpWrite, mLBA, n, cb)
			}
		}
	}
	if phase1 == 0 {
		// Both slots failed is impossible in the single-fault model, but
		// a failed data slot with failed parity read degenerates.
		g.sim.After(0, func() { done(g.sim.Now()) })
		return 1
	}
	reads := phase1
	cb := func(now time.Duration) {
		reads--
		if reads == 0 {
			writeBack(now)
		}
	}
	for _, tgt := range targets {
		if tgt != g.failed {
			g.issue(g.members[tgt], disk.OpRead, mLBA, n, cb)
		}
	}
	return 1
}

// issue submits one physical request.
func (g *Group) issue(q *blockdev.Queue, op disk.Op, lba, n int64, done func(time.Duration)) {
	req := &blockdev.Request{
		Op: op, LBA: lba, Sectors: n,
		Class:  blockdev.ClassBE,
		Origin: blockdev.Foreground,
		Tag:    0,
	}
	req.OnComplete = func(r *blockdev.Request) {
		if done != nil {
			done(r.Done)
		}
	}
	q.Submit(req)
}
