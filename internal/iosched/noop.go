// Package iosched implements the I/O schedulers (elevators) the paper's
// experiments run on: NOOP (FIFO with back-merging), Deadline (LBA-sorted
// with expiry), and CFQ — the only Linux scheduler with I/O priorities,
// whose Idle class and 10 ms idle gate the paper studies in Sections III-B
// and IV.
package iosched

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/obs"
)

// MaxMergeSectors bounds elevator merging, mirroring the kernel's
// max_sectors limit (512 KB).
const MaxMergeSectors = (512 << 10) / 512

// New returns a fresh scheduler by name: "cfq" (also the empty name),
// "deadline", "noop", or the bad-sector-aware "bsa" and "bsa-repair".
func New(name string) (blockdev.Scheduler, error) {
	switch name {
	case "", "cfq":
		return NewCFQ(), nil
	case "deadline":
		return NewDeadline(), nil
	case "noop":
		return NewNOOP(), nil
	case "bsa":
		return NewBSA(), nil
	case "bsa-repair":
		return NewBSARepair(), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

// NOOP is a FIFO elevator with back-merging only: the behaviour of the
// kernel's noop scheduler.
type NOOP struct {
	fifo []*blockdev.Request

	obsDispatch *obs.Counter // nil when uninstrumented
}

var _ blockdev.Scheduler = (*NOOP)(nil)

// NewNOOP returns an empty NOOP elevator.
func NewNOOP() *NOOP { return &NOOP{} }

// Instrument attaches a dispatch counter (iosched.noop.dispatch). A nil
// reg is a no-op.
func (n *NOOP) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	n.obsDispatch = reg.Counter("iosched.noop.dispatch")
}

// Add implements blockdev.Scheduler.
func (n *NOOP) Add(r *blockdev.Request, _ time.Duration) {
	if last := n.backMergeCandidate(r); last != nil {
		last.AbsorbMerge(r)
		return
	}
	n.fifo = append(n.fifo, r)
}

func (n *NOOP) backMergeCandidate(r *blockdev.Request) *blockdev.Request {
	if len(n.fifo) == 0 {
		return nil
	}
	last := n.fifo[len(n.fifo)-1]
	if last.Op == r.Op && last.Tag == r.Tag &&
		last.LBA+last.Sectors == r.LBA &&
		last.Sectors+r.Sectors <= MaxMergeSectors {
		return last
	}
	return nil
}

// Next implements blockdev.Scheduler.
func (n *NOOP) Next(time.Duration) (*blockdev.Request, time.Duration) {
	if len(n.fifo) == 0 {
		return nil, 0
	}
	r := n.fifo[0]
	copy(n.fifo, n.fifo[1:])
	n.fifo = n.fifo[:len(n.fifo)-1]
	n.obsDispatch.Inc()
	return r, 0
}

// OnComplete implements blockdev.Scheduler.
func (n *NOOP) OnComplete(*blockdev.Request, time.Duration) {}

// Len implements blockdev.Scheduler.
func (n *NOOP) Len() int { return len(n.fifo) }
