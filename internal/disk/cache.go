package disk

// cache models the on-disk segmented read cache: a fixed number of
// segments, each holding one contiguous LBA range, replaced in LRU order.
// Readahead extends fills beyond the requested range, which is both how
// sequential reads become cache hits and how the ATA VERIFY bug pollutes
// the cache (Section III-A).
//
// Lookups go through idx, the segment slots sorted by start sector. No
// segment is longer than segBytes, so a segment that can contain, overlap
// or touch a range starts within segBytes of it: a binary search bounds
// the candidates to a short run of idx, and the lowest slot among the
// matches is the one a scan of segments in slice order would find first.
type cache struct {
	segments    []segment
	idx         []int32 // slots of segments, sorted by start
	maxSegments int
	segBytes    int64 // capacity of one segment, in sectors
	clock       uint64
}

type segment struct {
	start, end int64 // sector range [start, end)
	lastUse    uint64
}

func newCache(m *Model) *cache {
	segs := m.CacheSegments
	if segs < 1 {
		segs = 1
	}
	perSeg := m.CacheBytes / int64(segs) / SectorSize
	if perSeg < 1 {
		perSeg = 1
	}
	return &cache{
		maxSegments: segs,
		segBytes:    perSeg,
	}
}

// search returns the first idx position whose segment starts at or after
// sector x.
func (c *cache) search(x int64) int {
	lo, hi := 0, len(c.idx)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.segments[c.idx[m]].start < x {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// contains reports whether [lba, lba+n) is fully cached, updating LRU
// recency on hit.
func (c *cache) contains(lba, n int64) bool {
	end := lba + n
	hit := int32(-1)
	for k := c.search(end - c.segBytes); k < len(c.idx); k++ {
		i := c.idx[k]
		s := &c.segments[i]
		if s.start > lba {
			break
		}
		if end <= s.end && (hit < 0 || i < hit) {
			hit = i
		}
	}
	if hit < 0 {
		return false
	}
	c.clock++
	c.segments[hit].lastUse = c.clock
	return true
}

// fill records that [lba, lba+n+readahead) is now cached, clipped to the
// segment capacity (keeping the tail, as drive readahead does) and to the
// disk size.
func (c *cache) fill(lba, n, readahead, diskSectors int64) {
	end := lba + n + readahead
	if end > diskSectors {
		end = diskSectors
	}
	start := lba
	if end-start > c.segBytes {
		start = end - c.segBytes
	}
	if end <= start {
		return
	}
	c.clock++
	// Extend an overlapping or adjacent segment if possible.
	hit, hk := int32(-1), 0
	for k := c.search(start - c.segBytes); k < len(c.idx); k++ {
		i := c.idx[k]
		s := &c.segments[i]
		if s.start > end {
			break
		}
		if start <= s.end && (hit < 0 || i < hit) {
			hit, hk = i, k
		}
	}
	if hit >= 0 {
		s := &c.segments[hit]
		start, end = min(start, s.start), max(end, s.end)
		if end-start > c.segBytes {
			start = end - c.segBytes
		}
		s.start, s.end, s.lastUse = start, end, c.clock
		c.move(hk)
		return
	}
	if len(c.segments) < c.maxSegments {
		c.segments = append(c.segments, segment{start: start, end: end, lastUse: c.clock})
		c.idx = append(c.idx, int32(len(c.segments)-1))
		c.move(len(c.idx) - 1)
		return
	}
	// Evict LRU: the lowest lastUse, the lowest slot on ties. The cache
	// holds a few dozen segments, so a scan of idx finds the victim's
	// position without a search.
	victim, oldest := 0, c.segments[0].lastUse
	for i, s := range c.segments {
		if s.lastUse < oldest {
			victim, oldest = i, s.lastUse
		}
	}
	k := 0
	for c.idx[k] != int32(victim) {
		k++
	}
	c.segments[victim] = segment{start: start, end: end, lastUse: c.clock}
	c.move(k)
}

// move restores idx order after the segment at idx position k changed
// its start, shifting the entries it passes by one.
func (c *cache) move(k int) {
	i := c.idx[k]
	start := c.segments[i].start
	for ; k > 0 && c.segments[c.idx[k-1]].start > start; k-- {
		c.idx[k] = c.idx[k-1]
	}
	for ; k+1 < len(c.idx) && c.segments[c.idx[k+1]].start < start; k++ {
		c.idx[k] = c.idx[k+1]
	}
	c.idx[k] = i
}

// reindex rebuilds idx from segments.
func (c *cache) reindex() {
	c.idx = c.idx[:0]
	for i := range c.segments {
		c.idx = append(c.idx, int32(i))
		c.move(i)
	}
}

// invalidate drops every segment overlapping [lba, lba+n), as a write
// would. Survivors keep their order, so idx stays sorted once the dropped
// slot is removed and the slots above it are renumbered.
func (c *cache) invalidate(lba, n int64) {
	end := lba + n
	for k := c.search(lba - c.segBytes); k < len(c.idx); {
		i := c.idx[k]
		s := &c.segments[i]
		if s.start >= end {
			return
		}
		if lba >= s.end {
			k++
			continue
		}
		c.idx = append(c.idx[:k], c.idx[k+1:]...)
		for j, x := range c.idx {
			if x > i {
				c.idx[j] = x - 1
			}
		}
		c.segments = append(c.segments[:i], c.segments[i+1:]...)
	}
}

// reset empties the cache.
func (c *cache) reset() {
	c.segments = c.segments[:0]
	c.idx = c.idx[:0]
}
