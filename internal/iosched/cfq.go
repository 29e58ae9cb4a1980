package iosched

import (
	"time"

	"repro/internal/blockdev"
	"repro/internal/obs"
)

// CFQ models the Completely Fair Queueing scheduler's behaviour as the
// paper exercises it (Section III-B):
//
//   - Per-process (per-Tag) queues grouped into the RT, BE and Idle
//     priority classes.
//   - Time-sliced service among RT/BE queues, with slice idling: after a
//     queue empties, CFQ waits up to SliceIdle for the same process to
//     issue its next (sequential, synchronous) request before switching.
//   - The Idle class is served only when no RT/BE request is pending and
//     the disk has been free of RT/BE activity for at least IdleGate
//     (10 ms in Linux 2.6.35, and the paper notes tuning it had no
//     effect). Once idle service begins it continues until an RT/BE
//     request arrives, which is how back-to-back Idle-class scrub
//     requests proceed during long idle periods.
type CFQ struct {
	st CFQState // live state; the per-tag queues keep their own order

	queues []*cfqQueue //scrublint:transient recorded as Order/Classes by SaveState, which refuses a non-empty elevator
	queued [3]int      //scrublint:transient queued requests per class (by Class-1); SaveState refuses a non-empty elevator

	// Observability instruments (nil when uninstrumented).
	obsDispatch  [3]*obs.Counter // dispatches by Class-1
	obsStarve    *obs.Counter    // starvation-gate holds
	obsSliceHold *obs.Counter    // anticipation holds
	obsTrace     *obs.Ring
}

type cfqQueue struct {
	tag   int
	class blockdev.Class
	// sorted holds the queued requests in descending LBA order, newest
	// last among equal LBAs, so the next dispatch (lowest LBA, newest
	// first on ties) is the tail: pop shortens the slice instead of
	// shifting it, and Add shifts only the requests below the new one.
	sorted []*blockdev.Request
}

// cfqClass returns the class CFQ serves a request in. A class it does
// not know, the zero value included, is best-effort: the default that
// blockdev.Class documents. Served as-is, such a request would count in
// Len but never dispatch.
func cfqClass(c blockdev.Class) blockdev.Class {
	if c == blockdev.ClassRT || c == blockdev.ClassIdle {
		return c
	}
	return blockdev.ClassBE
}

var _ blockdev.Scheduler = (*CFQ)(nil)

// NewCFQ returns a CFQ elevator with the Linux 2.6.35 defaults the paper
// measured: 10 ms idle gate, 8 ms slice idle, 100 ms slice.
func NewCFQ() *CFQ {
	return &CFQ{st: CFQState{
		IdleGate:  10 * time.Millisecond,
		SliceIdle: 8 * time.Millisecond,
		Slice:     100 * time.Millisecond,
	}}
}

// SetIdleGate sets the quiet time required before Idle-class dispatch.
func (c *CFQ) SetIdleGate(d time.Duration) { c.st.IdleGate = d }

// Instrument attaches the elevator to a metrics registry: per-class
// dispatch counters (iosched.cfq.dispatch.{rt,be,idle}), the idle-class
// starvation counter (iosched.cfq.idle_starved — idle work pending but
// the gate closed), the slice-idle anticipation counter and "dispatch"
// trace events carrying (class, LBA). A nil reg is a no-op.
func (c *CFQ) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.obsDispatch[blockdev.ClassRT-1] = reg.Counter("iosched.cfq.dispatch.rt")
	c.obsDispatch[blockdev.ClassBE-1] = reg.Counter("iosched.cfq.dispatch.be")
	c.obsDispatch[blockdev.ClassIdle-1] = reg.Counter("iosched.cfq.dispatch.idle")
	c.obsStarve = reg.Counter("iosched.cfq.idle_starved")
	c.obsSliceHold = reg.Counter("iosched.cfq.slice_idle_holds")
	c.obsTrace = reg.Trace()
}

// index returns the round-robin position of tag's queue, or -1.
func (c *CFQ) index(tag int) int {
	for i, q := range c.queues {
		if q.tag == tag {
			return i
		}
	}
	return -1
}

func (c *CFQ) queueFor(tag int, class blockdev.Class) *cfqQueue {
	i := c.index(tag)
	if i < 0 {
		q := &cfqQueue{tag: tag, class: class}
		c.queues = append(c.queues, q)
		return q
	}
	// A process's class follows its most recent request (ionice can
	// change it between requests), and its queued requests move with it.
	q := c.queues[i]
	if n := len(q.sorted); n > 0 && q.class != class {
		c.queued[q.class-1] -= n
		c.queued[class-1] += n
	}
	q.class = class
	return q
}

// Add implements blockdev.Scheduler.
//
//scrub:hotpath
func (c *CFQ) Add(r *blockdev.Request, now time.Duration) {
	class := cfqClass(r.Class)
	if class != blockdev.ClassIdle {
		// New RT/BE work ends any ongoing idle-class service (after the
		// in-flight request, which the block layer owns).
		c.st.InIdleService = false
	}
	q := c.queueFor(r.Tag, class)
	// The first queued request below r.LBA: r goes in front of it, and it
	// is the request r can back-merge into.
	i, hi := 0, len(q.sorted)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if q.sorted[mid].LBA >= r.LBA {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i < len(q.sorted) {
		p := q.sorted[i]
		if p.Op == r.Op && p.LBA+p.Sectors == r.LBA && p.Sectors+r.Sectors <= MaxMergeSectors {
			p.AbsorbMerge(r)
			return
		}
	}
	q.sorted = append(q.sorted, nil)
	copy(q.sorted[i+1:], q.sorted[i:])
	q.sorted[i] = r
	c.queued[class-1]++
}

// Next implements blockdev.Scheduler.
//
//scrub:hotpath
func (c *CFQ) Next(now time.Duration) (*blockdev.Request, time.Duration) {
	if c.Len() == 0 {
		return nil, 0
	}
	// RT, then BE.
	for class := blockdev.ClassRT; class <= blockdev.ClassBE; class++ {
		if r, wake, served := c.nextInClass(class, now); served {
			if r != nil {
				c.st.LastRTBEActive = now
				c.st.InIdleService = false
				c.obsDispatch[class-1].Inc()
				c.obsTrace.Emit(now, "iosched", "dispatch", int64(class), r.LBA)
			}
			return r, wake
		}
	}
	// Idle class: gate on RT/BE quiet time unless already in idle service.
	if !c.st.InIdleService {
		gateOpen := now-c.st.LastRTBEActive >= c.st.IdleGate
		if !gateOpen {
			c.obsStarve.Inc()
			return nil, c.st.LastRTBEActive + c.st.IdleGate
		}
		c.st.InIdleService = true
	}
	// FIFO across idle-class queues in round-robin tag order.
	for _, q := range c.queues {
		if q.class == blockdev.ClassIdle && len(q.sorted) > 0 {
			r := c.pop(q)
			c.obsDispatch[blockdev.ClassIdle-1].Inc()
			c.obsTrace.Emit(now, "iosched", "dispatch", int64(blockdev.ClassIdle), r.LBA)
			return r, 0
		}
	}
	return nil, 0
}

// nextInClass runs the slice machinery within one class. The third return
// reports whether this class has pending work (so lower classes must not
// run); a (nil, wake, true) result means "wait until wake".
func (c *CFQ) nextInClass(class blockdev.Class, now time.Duration) (*blockdev.Request, time.Duration, bool) {
	pending := c.queued[class-1] > 0
	// Slice idling: the active queue may be empty but anticipated to
	// issue more; during that window, same-class peers must wait. (Lower
	// classes must wait too, which the caller enforces because we report
	// served=true.)
	active := c.index(c.st.ActiveTag)
	if c.st.HaveActive && active >= 0 {
		if aq := c.queues[active]; aq.class == class {
			if len(aq.sorted) > 0 && now < c.st.SliceEnd {
				return c.pop(aq), 0, true
			}
			if len(aq.sorted) == 0 && now < c.st.IdleWaitUntil && now < c.st.SliceEnd {
				if pending {
					// Anticipation: hold the disk for the active process.
					c.obsSliceHold.Inc()
					wake := c.st.IdleWaitUntil
					if c.st.SliceEnd < wake {
						wake = c.st.SliceEnd
					}
					return nil, wake, true
				}
				return nil, 0, false // nothing anywhere in this class
			}
			// Slice over.
			c.st.HaveActive = false
		}
	}
	if !pending {
		return nil, 0, false
	}
	// Pick the next non-empty queue of this class in round-robin order,
	// starting after the last active queue.
	for i := range c.queues {
		q := c.queues[(active+1+i)%len(c.queues)]
		if q.class == class && len(q.sorted) > 0 {
			c.st.ActiveTag = q.tag
			c.st.HaveActive = true
			c.st.SliceEnd = now + c.st.Slice
			return c.pop(q), 0, true
		}
	}
	return nil, 0, false
}

// pop removes and returns q's next request, its lowest LBA.
func (c *CFQ) pop(q *cfqQueue) *blockdev.Request {
	n := len(q.sorted) - 1
	r := q.sorted[n]
	q.sorted[n] = nil
	q.sorted = q.sorted[:n]
	c.queued[q.class-1]--
	return r
}

// OnComplete implements blockdev.Scheduler.
func (c *CFQ) OnComplete(r *blockdev.Request, now time.Duration) {
	if r.Class != blockdev.ClassIdle {
		c.st.LastRTBEActive = now
		// Arm slice idling for the completing process.
		if c.st.HaveActive && r.Tag == c.st.ActiveTag {
			c.st.IdleWaitUntil = now + c.st.SliceIdle
		}
	}
}

// Len implements blockdev.Scheduler.
func (c *CFQ) Len() int { return c.queued[0] + c.queued[1] + c.queued[2] }
