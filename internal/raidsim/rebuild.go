package raidsim

import (
	"errors"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
)

// StartRebuild begins reconstructing the failed member onto the spare.
// With waitThreshold zero, rebuild rows issue back-to-back — fastest
// restoration of redundancy, maximum foreground impact. With a positive
// threshold, rebuild I/O follows the paper's Waiting discipline: it fires
// only once every member queue has been idle for the threshold and stops
// as soon as foreground work arrives, trading rebuild time for
// near-invisible foreground impact. done fires at completion.
func (g *Group) StartRebuild(waitThreshold time.Duration, done func(now time.Duration)) error {
	if g.failed < 0 {
		return errors.New("raidsim: nothing to rebuild")
	}
	if g.rebuilding {
		return errors.New("raidsim: rebuild already running")
	}
	g.rebuilding = true
	g.rebuildRow = 0
	g.rebuildDone = done
	g.rebuildWait = waitThreshold
	g.stats.RebuildStarted = g.sim.Now()

	if waitThreshold > 0 {
		g.rebuildHold = true
		g.watchIdleness()
		g.armRebuildTimer()
		return nil
	}
	g.rebuildHold = false
	g.rebuildStep()
	return nil
}

// Rebuilding reports whether a rebuild is in progress.
//
//scrublint:allow unusedexport ROADMAP item 8's reliability chain
func (g *Group) Rebuilding() bool { return g.rebuilding }

// RebuildProgress returns the fraction of rows rebuilt.
//
//scrublint:allow unusedexport ROADMAP item 8's reliability chain
func (g *Group) RebuildProgress() float64 {
	if g.rowsTotal == 0 {
		return 0
	}
	return float64(g.rebuildRow) / float64(g.rowsTotal)
}

// watchIdleness wires Waiting-style pacing to every member queue: any
// foreground submission holds the rebuild; group-wide idleness re-arms it.
// Idempotent across successive rebuilds.
func (g *Group) watchIdleness() {
	if g.idleWatched {
		return
	}
	g.idleWatched = true
	queues := append([]*blockdev.Queue{}, g.members...)
	queues = append(queues, g.spare)
	for _, q := range queues {
		q.SubscribeSubmit(func(r *blockdev.Request) {
			if r.Origin != blockdev.Foreground {
				return
			}
			g.rebuildHold = true
			g.rebuildTimer.Disarm()
		})
		q.SubscribeIdle(func(time.Duration) {
			if !g.rebuilding || !g.rebuildHold {
				return
			}
			if g.groupIdle() {
				g.armRebuildTimer()
			}
		})
	}
}

func (g *Group) groupIdle() bool {
	for _, q := range g.members {
		if !q.Idle() {
			return false
		}
	}
	return g.spare == nil || g.spare.Idle()
}

func (g *Group) armRebuildTimer() {
	g.rebuildTimer.Arm(g.sim.Now() + g.rebuildWait)
}

// rebuildTimerFn is the rebuild timer body: the idle wait is over, so
// the walk resumes unless a row is still in flight.
func (g *Group) rebuildTimerFn() {
	if !g.rebuilding {
		return
	}
	g.rebuildHold = false
	if g.rebuildActive == 0 {
		g.rebuildStep()
	}
}

// rebuildStep reconstructs one row: read the row's unit from every
// survivor, then write the reconstructed unit to the spare.
func (g *Group) rebuildStep() {
	if !g.rebuilding || g.rebuildHold {
		return
	}
	// Declustered layouts skip rows that do not involve the failed
	// member: only the k/n fraction of rows holding one of its units
	// needs reconstruction.
	for g.rebuildRow < g.rowsTotal && !g.rowHasMember(g.rebuildRow, g.failed) {
		g.rebuildRow++
	}
	if g.rebuildRow >= g.rowsTotal {
		g.finishRebuild()
		return
	}
	row := g.rebuildRow
	g.rebuildRow++
	u := g.cfg.StripeSectors
	mLBA := row * u

	survivors := 0
	for i := range g.members {
		if i != g.failed && g.rowHasMember(row, i) {
			survivors++
		}
	}
	g.rebuildActive = survivors
	rowLost := false
	onRead := func(now time.Duration, lses int) {
		if lses > 0 {
			// A latent sector error on a survivor during reconstruction:
			// with the redundancy gone, this stripe is unrecoverable. This
			// is precisely the data-loss mode the paper's introduction
			// warns about, and what a low-MLET scrubber prevents.
			if !rowLost {
				rowLost = true
				g.stats.UnrecoverableStripes++
			}
			g.stats.LSEsHitDuringRebuild += int64(lses)
		}
		g.rebuildActive--
		if g.rebuildActive > 0 {
			return
		}
		// All survivor units in: write the reconstructed unit.
		g.rebuildActive = 1
		req := &blockdev.Request{
			Op: disk.OpWrite, LBA: mLBA, Sectors: u,
			Class:  blockdev.ClassBE,
			Origin: blockdev.Scrub, // background accounting: collisions etc.
			Tag:    1,
		}
		req.OnComplete = func(r *blockdev.Request) {
			g.rebuildActive = 0
			g.stats.RebuildRows++
			g.rebuildStep()
		}
		g.spare.Submit(req)
	}
	for i, q := range g.members {
		if i == g.failed || !g.rowHasMember(row, i) {
			continue
		}
		req := &blockdev.Request{
			Op: disk.OpRead, LBA: mLBA, Sectors: u,
			Class:  blockdev.ClassBE,
			Origin: blockdev.Scrub,
			Tag:    1,
		}
		req.OnComplete = func(r *blockdev.Request) { onRead(r.Done, len(r.LSEs)) }
		q.Submit(req)
	}
}

// finishRebuild promotes the spare into the failed slot.
func (g *Group) finishRebuild() {
	g.rebuilding = false
	g.stats.RebuildFinished = g.sim.Now()
	g.members[g.failed] = g.spare
	g.scheds[g.failed] = g.spareSched
	g.spare = nil
	g.spareSched = nil
	g.failed = -1
	g.rebuildTimer.Disarm()
	if g.rebuildDone != nil {
		g.rebuildDone(g.sim.Now())
	}
}
