package iosched

import (
	"time"

	"repro/internal/blockdev"
)

// ascCFQ is the reference CFQ: the elevator as it was when each per-tag
// queue was kept in ascending LBA order, dispatched from the front (pop
// shifts the rest down) and merged into the request in front of the
// insertion point. Everything else is CFQ's slice and idle-gate logic,
// uninstrumented.
type ascCFQ struct {
	st     CFQState
	queues []*cfqQueue
	queued [3]int
}

func newAscCFQ() *ascCFQ {
	return &ascCFQ{st: NewCFQ().st}
}

func (c *ascCFQ) index(tag int) int {
	for i, q := range c.queues {
		if q.tag == tag {
			return i
		}
	}
	return -1
}

func (c *ascCFQ) queueFor(tag int, class blockdev.Class) *cfqQueue {
	i := c.index(tag)
	if i < 0 {
		q := &cfqQueue{tag: tag, class: class}
		c.queues = append(c.queues, q)
		return q
	}
	q := c.queues[i]
	if n := len(q.sorted); n > 0 && q.class != class {
		c.queued[q.class-1] -= n
		c.queued[class-1] += n
	}
	q.class = class
	return q
}

func (c *ascCFQ) Add(r *blockdev.Request, now time.Duration) {
	class := cfqClass(r.Class)
	if class != blockdev.ClassIdle {
		c.st.InIdleService = false
	}
	q := c.queueFor(r.Tag, class)
	i, hi := 0, len(q.sorted)
	for i < hi {
		mid := int(uint(i+hi) >> 1)
		if q.sorted[mid].LBA < r.LBA {
			i = mid + 1
		} else {
			hi = mid
		}
	}
	if i > 0 {
		p := q.sorted[i-1]
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

func (c *ascCFQ) Next(now time.Duration) (*blockdev.Request, time.Duration) {
	if c.Len() == 0 {
		return nil, 0
	}
	for class := blockdev.ClassRT; class <= blockdev.ClassBE; class++ {
		if r, wake, served := c.nextInClass(class, now); served {
			if r != nil {
				c.st.LastRTBEActive = now
				c.st.InIdleService = false
			}
			return r, wake
		}
	}
	if !c.st.InIdleService {
		if now-c.st.LastRTBEActive < c.st.IdleGate {
			return nil, c.st.LastRTBEActive + c.st.IdleGate
		}
		c.st.InIdleService = true
	}
	for _, q := range c.queues {
		if q.class == blockdev.ClassIdle && len(q.sorted) > 0 {
			return c.pop(q), 0
		}
	}
	return nil, 0
}

func (c *ascCFQ) nextInClass(class blockdev.Class, now time.Duration) (*blockdev.Request, time.Duration, bool) {
	pending := c.queued[class-1] > 0
	active := c.index(c.st.ActiveTag)
	if c.st.HaveActive && active >= 0 {
		if aq := c.queues[active]; aq.class == class {
			if len(aq.sorted) > 0 && now < c.st.SliceEnd {
				return c.pop(aq), 0, true
			}
			if len(aq.sorted) == 0 && now < c.st.IdleWaitUntil && now < c.st.SliceEnd {
				if pending {
					return nil, min(c.st.IdleWaitUntil, c.st.SliceEnd), true
				}
				return nil, 0, false
			}
			c.st.HaveActive = false
		}
	}
	if !pending {
		return nil, 0, false
	}
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

func (c *ascCFQ) pop(q *cfqQueue) *blockdev.Request {
	r := q.sorted[0]
	copy(q.sorted, q.sorted[1:])
	q.sorted = q.sorted[:len(q.sorted)-1]
	c.queued[q.class-1]--
	return r
}

func (c *ascCFQ) OnComplete(r *blockdev.Request, now time.Duration) {
	if r.Class != blockdev.ClassIdle {
		c.st.LastRTBEActive = now
		if c.st.HaveActive && r.Tag == c.st.ActiveTag {
			c.st.IdleWaitUntil = now + c.st.SliceIdle
		}
	}
}

func (c *ascCFQ) Len() int { return c.queued[0] + c.queued[1] + c.queued[2] }
