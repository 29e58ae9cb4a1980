package disk

// cache models the on-disk segmented read cache: a fixed number of
// segments, each holding one contiguous LBA range, replaced in LRU order.
// Readahead extends fills beyond the requested range, which is both how
// sequential reads become cache hits and how the ATA VERIFY bug pollutes
// the cache (Section III-A).
//
// segments stays in slot order; two structures over the slots make every
// operation a few probes. The cell table files each slot under the cell
// of its start, sector >> shift, in an open-addressed multimap. No
// segment is longer than segBytes and a cell is at least that wide, so a
// segment that can contain, overlap or touch a range starts in one of
// the two or three cells at and just before it: probing those cells and
// keeping the lowest matching slot finds the segment a scan of segments
// in slice order would find first. The LRU list links the slots in
// (lastUse, slot) order, so the victim of an eviction is its head. Both
// name slot i as node i+1; node 0 is a free table entry and the list's
// sentinel.
type cache struct {
	segments    []segment
	maxSegments int
	segBytes    int64 // capacity of one segment, in sectors
	clock       uint64

	shift     uint    // sector x lies in cell x >> shift; 1<<shift >= segBytes
	hashShift uint    // 64 - log2(len(table)), for Fibonacci hashing
	table     []int32 // nodes filed under the cells of their starts
	// prev and next link the nodes into the LRU list; next[0] is the
	// least recently used.
	prev, next []int32
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
	c := &cache{maxSegments: segs, segBytes: perSeg, hashShift: 64 - 2}
	for int64(1)<<c.shift < perSeg {
		c.shift++
	}
	size := 4
	for size < tableLoad*segs {
		size <<= 1
		c.hashShift--
	}
	nodes := segs + 1
	buf := make([]int32, size+2*nodes)
	c.table = buf[:size:size]
	c.prev = buf[size : size+nodes : size+nodes]
	c.next = buf[size+nodes:]
	return c
}

// tableLoad is the least number of table entries per segment slot. At
// one in eight filled, most probes end at the first entry they read; at
// one in four, BenchmarkCacheWriteInvalidate took twice as long.
const tableLoad = 8

// home returns the table position where probing for cell begins.
func (c *cache) home(cell int64) int {
	return int(uint64(cell) * 0x9E3779B97F4A7C15 >> c.hashShift)
}

// lowest returns the lowest slot whose segment starts at or before a and
// ends at or after b, or -1. Such a segment starts at or after
// b-segBytes, so only the cells from there to a can file it; once those
// outnumber the segments a scan of the slots is cheaper.
func (c *cache) lowest(a, b int64) int32 {
	lo, hi := (b-c.segBytes)>>c.shift, a>>c.shift
	if hi-lo >= int64(len(c.segments)) {
		for i, s := range c.segments {
			if s.start <= a && b <= s.end {
				return int32(i)
			}
		}
		return -1
	}
	mask := len(c.table) - 1
	best := ^uint32(0)
	for cell := lo; cell <= hi; cell++ {
		for h := c.home(cell); c.table[h] != 0; h = (h + 1) & mask {
			i := c.table[h] - 1
			if s := &c.segments[i]; s.start <= a && b <= s.end && uint32(i) < best {
				best = uint32(i)
			}
		}
	}
	return int32(best)
}

// find returns the table position of node x, filed under the cell of
// start.
func (c *cache) find(x int32, start int64) int {
	mask := len(c.table) - 1
	h := c.home(start >> c.shift)
	for c.table[h] != x {
		h = (h + 1) & mask
	}
	return h
}

// file enters slot i into the table under the cell of its start.
func (c *cache) file(i int32) {
	mask := len(c.table) - 1
	h := c.home(c.segments[i].start >> c.shift)
	for c.table[h] != 0 {
		h = (h + 1) & mask
	}
	c.table[h] = i + 1
}

// unfile removes slot i, still at the start it was filed under, from the
// table. Deletion shifts later entries of the probe run back into the
// gap, so every run stays unbroken without tombstones.
func (c *cache) unfile(i int32) {
	mask := len(c.table) - 1
	h := c.find(i+1, c.segments[i].start)
	for j := (h + 1) & mask; c.table[j] != 0; j = (j + 1) & mask {
		if k := c.home(c.segments[c.table[j]-1].start >> c.shift); (j-k)&mask >= (j-h)&mask {
			c.table[h] = c.table[j]
			h = j
		}
	}
	c.table[h] = 0
}

// before reports whether node p sorts before node x in the LRU list, by
// (lastUse, slot); the sentinel, node 0, sorts before every slot.
func (c *cache) before(p, x int32) bool {
	if p == 0 {
		return true
	}
	u, v := c.segments[p-1].lastUse, c.segments[x-1].lastUse
	return u < v || u == v && p < x
}

// link inserts slot i into the LRU list at its (lastUse, slot) place,
// searching from the tail, where a slot just used belongs.
func (c *cache) link(i int32) {
	x := i + 1
	p := c.prev[0]
	for !c.before(p, x) {
		p = c.prev[p]
	}
	n := c.next[p]
	c.prev[x], c.next[x] = p, n
	c.next[p], c.prev[n] = x, x
}

// unlink removes slot i from the LRU list.
func (c *cache) unlink(i int32) {
	p, n := c.prev[i+1], c.next[i+1]
	c.next[p], c.prev[n] = n, p
}

// touch marks slot i as used now. A slot that stays the list's tail, as
// one hit again and again by a sequential stream does, keeps its place.
func (c *cache) touch(i int32) {
	c.segments[i].lastUse = c.clock
	if x := i + 1; c.next[x] != 0 || !c.before(c.prev[x], x) {
		c.unlink(i)
		c.link(i)
	}
}

// contains reports whether [lba, lba+n) is fully cached, updating LRU
// recency on hit.
func (c *cache) contains(lba, n int64) bool {
	i := c.lowest(lba, lba+n)
	if i < 0 {
		return false
	}
	c.clock++
	c.touch(i)
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
	if i := c.lowest(end, start); i >= 0 {
		s := &c.segments[i]
		start, end = min(start, s.start), max(end, s.end)
		if end-start > c.segBytes {
			start = end - c.segBytes
		}
		if start>>c.shift != s.start>>c.shift {
			c.unfile(i)
			s.start = start
			c.file(i)
		}
		s.start, s.end = start, end
		c.touch(i)
		return
	}
	i := int32(len(c.segments))
	if len(c.segments) < c.maxSegments {
		c.segments = append(c.segments, segment{})
	} else {
		// Evict LRU: the lowest lastUse, the lowest slot on ties.
		i = c.next[0] - 1
		c.unfile(i)
		c.unlink(i)
	}
	c.segments[i] = segment{start: start, end: end, lastUse: c.clock}
	c.file(i)
	c.link(i)
}

// invalidate drops every segment overlapping [lba, lba+n), as a write
// would.
func (c *cache) invalidate(lba, n int64) {
	for {
		i := c.lowest(lba+n-1, lba+1)
		if i < 0 {
			return
		}
		c.drop(i)
	}
}

// drop removes slot i. The survivors keep their order, so the slots
// above i move down by one, in the table and the LRU list too.
func (c *cache) drop(i int32) {
	c.unfile(i)
	c.unlink(i)
	c.segments = append(c.segments[:i], c.segments[i+1:]...)
	n := int32(len(c.segments))
	for j := i; j < n; j++ {
		c.table[c.find(j+2, c.segments[j].start)] = j + 1
	}
	x := i + 1
	copy(c.prev[x:n+1], c.prev[x+1:n+2])
	copy(c.next[x:n+1], c.next[x+1:n+2])
	for j, v := range c.prev[:n+1] {
		if v > x {
			c.prev[j] = v - 1
		}
	}
	for j, v := range c.next[:n+1] {
		if v > x {
			c.next[j] = v - 1
		}
	}
}

// reset empties the cache.
func (c *cache) reset() {
	if len(c.segments) > 0 {
		clear(c.table)
	}
	c.segments = c.segments[:0]
	c.prev[0], c.next[0] = 0, 0
}

// reindex files and links segments restored into an empty cache.
func (c *cache) reindex() {
	for i := range c.segments {
		c.file(int32(i))
		c.link(int32(i))
	}
}
