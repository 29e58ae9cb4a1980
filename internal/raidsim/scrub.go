package raidsim

import (
	"errors"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
)

// StartScrub walks every row once, issuing VERIFYs for each live unit in
// the row's stripe window (data and parity) back to back in the
// best-effort class. Running it concurrently with a rebuild is the
// interference scenario the declustered layout exists to soften: both
// walks contend for the same member queues, and the experiment tables
// measure how layout changes who wins. Latent errors the scrub surfaces
// are counted (ScrubLSEsFound) — those are exactly the errors a later
// rebuild will no longer trip over once repaired.
func (g *Group) StartScrub(done func(now time.Duration)) error {
	if g.scrubbing {
		return errors.New("raidsim: scrub already running")
	}
	g.scrubbing = true
	g.scrubRow = 0
	g.scrubDone = done
	g.scrubStep()
	return nil
}

// Scrubbing reports whether a group scrub is in progress.
//
//scrublint:allow unusedexport ROADMAP item 8's reliability chain
func (g *Group) Scrubbing() bool { return g.scrubbing }

// scrubStep verifies one row and chains to the next.
func (g *Group) scrubStep() {
	if !g.scrubbing {
		return
	}
	if g.scrubRow >= g.rowsTotal {
		g.finishScrub()
		return
	}
	row := g.scrubRow
	g.scrubRow++
	u := g.cfg.StripeSectors
	mLBA := row * u

	targets := 0
	for i := range g.members {
		if i != g.failed && g.rowHasMember(row, i) {
			targets++
		}
	}
	if targets == 0 {
		g.scrubStep()
		return
	}
	g.scrubActive = targets
	for i, q := range g.members {
		if i == g.failed || !g.rowHasMember(row, i) {
			continue
		}
		req := &blockdev.Request{
			Op: disk.OpVerify, LBA: mLBA, Sectors: u,
			Class:  blockdev.ClassBE,
			Origin: blockdev.Scrub,
			Tag:    2,
		}
		req.OnComplete = func(r *blockdev.Request) {
			g.stats.ScrubLSEsFound += int64(len(r.LSEs))
			g.scrubActive--
			if g.scrubActive == 0 {
				g.stats.ScrubbedRows++
				g.scrubStep()
			}
		}
		q.Submit(req)
	}
}

// finishScrub completes the walk.
func (g *Group) finishScrub() {
	g.scrubbing = false
	g.stats.ScrubFinished = g.sim.Now()
	if g.scrubDone != nil {
		g.scrubDone(g.sim.Now())
	}
}
