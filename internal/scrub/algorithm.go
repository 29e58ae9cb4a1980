// Package scrub implements the paper's kernel scrubbing framework
// (Section III-C): scrubber threads that walk a disk with VERIFY requests
// under a pluggable scrubbing Algorithm. Like the paper's framework — where
// sequential and staggered scrubbing each took ~50 lines — algorithms here
// only decide *what to verify next*; issuing, prioritization, pacing and
// scheduling-policy integration live in the Scrubber.
package scrub

import (
	"fmt"
)

// Algorithm enumerates a scrub pass: each call to Next returns the extent
// to verify, bounded by maxSectors. Implementations are single-goroutine
// state machines driven by a Scrubber.
type Algorithm interface {
	// Next returns the next extent to verify, at most maxSectors long.
	// ok=false signals the end of a full pass; the caller Resets to begin
	// the next pass.
	Next(maxSectors int64) (lba, sectors int64, ok bool)
	// Reset rewinds the algorithm to the start of a pass.
	Reset()
	// Progress reports the fraction of the current pass completed, in
	// [0, 1].
	Progress() float64
	// Name identifies the algorithm.
	Name() string
}

// Sequential scans the disk in increasing LBN order: the algorithm
// production systems use.
type Sequential struct {
	total int64
	pos   int64
}

var _ Algorithm = (*Sequential)(nil)

// NewSequential returns a sequential scrubber over a disk of totalSectors.
func NewSequential(totalSectors int64) (*Sequential, error) {
	if totalSectors <= 0 {
		return nil, fmt.Errorf("scrub: non-positive disk size %d", totalSectors)
	}
	return &Sequential{total: totalSectors}, nil
}

// Next implements Algorithm.
func (s *Sequential) Next(maxSectors int64) (int64, int64, bool) {
	if maxSectors <= 0 || s.pos >= s.total {
		return 0, 0, false
	}
	lba := s.pos
	n := maxSectors
	if lba+n > s.total {
		n = s.total - lba
	}
	s.pos += n
	return lba, n, true
}

// Reset implements Algorithm.
func (s *Sequential) Reset() { s.pos = 0 }

// Progress implements Algorithm.
func (s *Sequential) Progress() float64 { return float64(s.pos) / float64(s.total) }

// Name implements Algorithm.
func (s *Sequential) Name() string { return "sequential" }

// AlgCursor is the serializable pass position of a built-in algorithm.
// One struct covers both: Sequential uses Pos, Staggered uses Round,
// Region and Done. Sizing parameters (total, regions, segment) are not
// part of the cursor — they are reconstructed from configuration, so a
// cursor is only meaningful against an identically configured algorithm.
type AlgCursor struct {
	Pos    int64
	Round  int64
	Region int64
	Done   int64
}

// CursorSaver is implemented by algorithms whose pass position can be
// captured and restored. Both built-in algorithms implement it; a custom
// Algorithm without it cannot be parked by the fleet engine.
type CursorSaver interface {
	SaveCursor() AlgCursor
	LoadCursor(AlgCursor)
}

var _ CursorSaver = (*Sequential)(nil)

// SaveCursor implements CursorSaver.
func (s *Sequential) SaveCursor() AlgCursor { return AlgCursor{Pos: s.pos} }

// LoadCursor implements CursorSaver.
func (s *Sequential) LoadCursor(c AlgCursor) { s.pos = c.Pos }

// Staggered implements the staggered scrubbing of Oprea & Juels (FAST'10)
// as evaluated by the paper (Section IV): the disk is divided into R
// regions; in round k the scrubber verifies the k-th segment of each
// region in LBN order, probing the whole disk quickly to catch bursty
// LSEs early.
type Staggered struct {
	total      int64
	regions    int64
	regionSize int64
	segment    int64 // segment size in sectors (one request per segment)

	round  int64 // current segment index within regions
	region int64 // current region
	done   int64 // sectors verified this pass
}

var _ Algorithm = (*Staggered)(nil)

// NewStaggered returns a staggered scrubber over totalSectors, divided
// into regions, verifying segmentSectors per request.
func NewStaggered(totalSectors, segmentSectors int64, regions int) (*Staggered, error) {
	switch {
	case totalSectors <= 0:
		return nil, fmt.Errorf("scrub: non-positive disk size %d", totalSectors)
	case regions < 1:
		return nil, fmt.Errorf("scrub: need >= 1 region, got %d", regions)
	case segmentSectors <= 0:
		return nil, fmt.Errorf("scrub: non-positive segment %d", segmentSectors)
	}
	regionSize := (totalSectors + int64(regions) - 1) / int64(regions)
	if regionSize < segmentSectors {
		regionSize = segmentSectors
	}
	return &Staggered{
		total:      totalSectors,
		regions:    int64(regions),
		regionSize: regionSize,
		segment:    segmentSectors,
	}, nil
}

// Next implements Algorithm. maxSectors below the configured segment size
// shrinks the request (adaptive-size policies shrink coverage within the
// segment; the remainder is caught on the next pass). Larger values are
// clipped to the segment so the staggered structure is preserved.
func (st *Staggered) Next(maxSectors int64) (int64, int64, bool) {
	if maxSectors <= 0 {
		return 0, 0, false
	}
	for st.round*st.segment < st.regionSize {
		start := st.region*st.regionSize + st.round*st.segment
		regionEnd := (st.region + 1) * st.regionSize
		if regionEnd > st.total {
			regionEnd = st.total
		}
		// Advance the (region, round) cursor for the next call.
		st.region++
		if st.region >= st.regions {
			st.region = 0
			st.round++
		}
		if start >= regionEnd {
			continue // the last region can be shorter than the others
		}
		n := st.segment
		if n > maxSectors {
			n = maxSectors
		}
		if start+n > regionEnd {
			n = regionEnd - start
		}
		st.done += n
		return start, n, true
	}
	return 0, 0, false
}

// Reset implements Algorithm.
func (st *Staggered) Reset() { st.round, st.region, st.done = 0, 0, 0 }

// Progress implements Algorithm.
func (st *Staggered) Progress() float64 { return float64(st.done) / float64(st.total) }

// Name implements Algorithm.
func (st *Staggered) Name() string { return "staggered" }

var _ CursorSaver = (*Staggered)(nil)

// SaveCursor implements CursorSaver.
func (st *Staggered) SaveCursor() AlgCursor {
	return AlgCursor{Round: st.round, Region: st.region, Done: st.done}
}

// LoadCursor implements CursorSaver.
func (st *Staggered) LoadCursor(c AlgCursor) {
	st.round, st.region, st.done = c.Round, c.Region, c.Done
}

// Regioner is implemented by algorithms that partition the disk into
// regions. The Scrubber's escalation path (Config.Escalate) uses it to
// turn one detected latent sector error into an immediate re-verify of
// the whole surrounding region — the Oprea–Juels response to spatially
// bursty LSEs.
type Regioner interface {
	// RegionOf returns the extent of the region containing lba.
	RegionOf(lba int64) (start, sectors int64)
}

var _ Regioner = (*Staggered)(nil)

// RegionOf implements Regioner.
func (st *Staggered) RegionOf(lba int64) (int64, int64) {
	if lba < 0 {
		lba = 0
	}
	start := (lba / st.regionSize) * st.regionSize
	end := start + st.regionSize
	if end > st.total {
		end = st.total
	}
	if start >= end {
		return 0, 0
	}
	return start, end - start
}
