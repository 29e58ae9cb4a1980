package iosched

import (
	"sort"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/obs"
)

// BSA is an ODSA-style bad-sector-aware elevator (the "offline data
// scrubbing on bad sectors" line of work, arXiv 1403.0334): it learns
// bad regions from completed requests — medium errors and detected
// latent sector errors — and separates traffic that touches them from
// the clean stream.
//
// In the default deferring mode, requests overlapping known-bad regions
// are parked in a penalty FIFO and served only when no clean request is
// pending or when they have waited past Expiry (anti-starvation), so
// in-device error recovery — tens of milliseconds per attempt — stops
// head-of-line-blocking healthy traffic.
//
// With Repair set the priority inverts: suspect requests are served
// first, the policy of a scheduler front-running the scrubber to get to
// the bad sector at the right time — re-reads hit the region while the
// error context is fresh and the remap happens before the backlog grows.
//
// Clean requests are served in ascending-LBA scan order with the same
// back-merge rule as Deadline. Suspect requests never merge: keeping
// each suspect extent separate bounds the blast radius of one slow
// error-recovery cycle to one request.
type BSA struct {
	// Repair selects the repair-first variant (suspects before clean
	// traffic); the default defers suspects behind clean traffic.
	Repair bool
	// Expiry bounds how long the deferring mode may starve a suspect
	// request. Zero defaults to 2 s.
	Expiry time.Duration

	bad     SectorMap
	sorted  []*blockdev.Request // clean, ascending LBA
	suspect []*blockdev.Request // arrival order
	nextPo  int64               // clean-scan position

	// Observability instruments (nil when uninstrumented).
	obsScan     *obs.Counter
	obsDeferred *obs.Counter
	obsExpired  *obs.Counter
	obsLearned  *obs.Counter
	obsTrace    *obs.Ring
}

var _ blockdev.Scheduler = (*BSA)(nil)

// NewBSA returns the deferring bad-sector-aware elevator.
func NewBSA() *BSA { return &BSA{Expiry: 2 * time.Second} }

// NewBSARepair returns the repair-first variant.
func NewBSARepair() *BSA { return &BSA{Repair: true, Expiry: 2 * time.Second} }

// Name returns the variant name used by flags and reports.
func (b *BSA) Name() string {
	if b.Repair {
		return "bsa-repair"
	}
	return "bsa"
}

// Instrument attaches the elevator to a metrics registry: dispatch
// counters split by decision (iosched.bsa.dispatch.{scan,suspect,
// expired}), a learned-range counter and trace events. A nil reg is a
// no-op.
func (b *BSA) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	b.obsScan = reg.Counter("iosched.bsa.dispatch.scan")
	b.obsDeferred = reg.Counter("iosched.bsa.dispatch.suspect")
	b.obsExpired = reg.Counter("iosched.bsa.dispatch.expired")
	b.obsLearned = reg.Counter("iosched.bsa.learned")
	b.obsTrace = reg.Trace()
}

// BadRanges reports how many disjoint bad regions the scheduler has
// learned so far.
func (b *BSA) BadRanges() int { return b.bad.Ranges() }

// expiry returns the anti-starvation bound.
func (b *BSA) expiry() time.Duration {
	if b.Expiry > 0 {
		return b.Expiry
	}
	return 2 * time.Second
}

// Add implements blockdev.Scheduler.
func (b *BSA) Add(r *blockdev.Request, _ time.Duration) {
	if b.bad.Overlaps(r.LBA, r.Sectors) {
		b.suspect = append(b.suspect, r)
		return
	}
	i := sort.Search(len(b.sorted), func(i int) bool { return b.sorted[i].LBA >= r.LBA })
	// Back-merge with the LBA-adjacent predecessor when compatible.
	if i > 0 {
		p := b.sorted[i-1]
		if p.Op == r.Op && p.Tag == r.Tag && p.LBA+p.Sectors == r.LBA &&
			p.Sectors+r.Sectors <= MaxMergeSectors {
			p.AbsorbMerge(r)
			return
		}
	}
	b.sorted = append(b.sorted, nil)
	copy(b.sorted[i+1:], b.sorted[i:])
	b.sorted[i] = r
}

// Next implements blockdev.Scheduler.
func (b *BSA) Next(now time.Duration) (*blockdev.Request, time.Duration) {
	if b.Repair {
		if r := b.popSuspect(now, "dispatch_suspect", b.obsDeferred); r != nil {
			return r, 0
		}
		return b.popClean(now), 0
	}
	// Deferring mode: anti-starvation first, then clean traffic, then
	// suspects only when nothing clean is pending.
	if len(b.suspect) > 0 && now-b.suspect[0].Submit >= b.expiry() {
		return b.popSuspect(now, "dispatch_expired", b.obsExpired), 0
	}
	if r := b.popClean(now); r != nil {
		return r, 0
	}
	return b.popSuspect(now, "dispatch_suspect", b.obsDeferred), 0
}

// popClean serves the next clean request in one-way scan order.
func (b *BSA) popClean(now time.Duration) *blockdev.Request {
	if len(b.sorted) == 0 {
		return nil
	}
	i := sort.Search(len(b.sorted), func(i int) bool { return b.sorted[i].LBA >= b.nextPo })
	if i == len(b.sorted) {
		i = 0
	}
	r := b.sorted[i]
	b.sorted = append(b.sorted[:i], b.sorted[i+1:]...)
	b.nextPo = r.LBA + r.Sectors
	b.obsScan.Inc()
	b.obsTrace.Emit(now, "iosched", "dispatch_scan", r.LBA, r.Sectors)
	return r
}

// popSuspect serves the oldest suspect request.
func (b *BSA) popSuspect(now time.Duration, event string, c *obs.Counter) *blockdev.Request {
	if len(b.suspect) == 0 {
		return nil
	}
	r := b.suspect[0]
	copy(b.suspect, b.suspect[1:])
	b.suspect[len(b.suspect)-1] = nil
	b.suspect = b.suspect[:len(b.suspect)-1]
	c.Inc()
	b.obsTrace.Emit(now, "iosched", event, r.LBA, r.Sectors)
	return r
}

// OnComplete implements blockdev.Scheduler: this is where the map
// learns. Detected LSEs mark their sectors bad whether or not the
// request ultimately failed; a terminal medium error with no sector
// detail marks the whole extent.
func (b *BSA) OnComplete(r *blockdev.Request, _ time.Duration) {
	if len(r.LSEs) > 0 {
		for _, lba := range r.LSEs {
			b.bad.MarkBad(lba, 1)
		}
		b.obsLearned.Inc()
		return
	}
	if r.Err != nil {
		b.bad.MarkBad(r.LBA, r.Sectors)
		b.obsLearned.Inc()
		return
	}
	// A successful write remaps the extent in-device; unlearn it so
	// repaired regions rejoin the clean stream.
	if r.Op == disk.OpWrite {
		b.bad.Clear(r.LBA, r.Sectors)
	}
}

// Len implements blockdev.Scheduler.
func (b *BSA) Len() int { return len(b.sorted) + len(b.suspect) }
