package disk

// SegState is one cached segment in a disk snapshot.
type SegState struct {
	Start, End int64
	LastUse    uint64
}

// State is the drive's live state, and gob-encoded it is the compact
// serializable state of a parked one. The model itself is not embedded —
// the restorer supplies it (fleet members share a handful of models, so
// states stay small) — and geometry is recomputed from the model, so a
// snapshot carries only what the drive accumulated: head position,
// outstanding LSEs, counters and cache contents (including the LRU
// clock, which decides future evictions). The cache keeps its contents
// in its own indexed form; a live Disk does not read CacheClock or
// CacheSegs, which SaveState fills.
type State struct {
	HeadCyl      int
	LSEs         []int64 // sorted
	Served       int64
	MediaOps     int64
	CacheHits    int64
	CacheEnabled bool
	CacheClock   uint64
	CacheSegs    []SegState
}

// SaveState copies the disk's state into dst, reusing dst's slices.
func (d *Disk) SaveState(dst *State) {
	lses, segs := dst.LSEs[:0], dst.CacheSegs[:0]
	*dst = d.st
	dst.LSEs = append(lses, d.st.LSEs...)
	dst.CacheClock = d.cache.clock
	for _, s := range d.cache.segments {
		segs = append(segs, SegState{Start: s.start, End: s.end, LastUse: s.lastUse})
	}
	dst.CacheSegs = segs
}

// RestoreState overwrites the disk with a snapshot taken from a disk of
// the same model; the disk may be fresh or may have served another
// member. Geometry and cache sizing come from that model, so only
// accumulated state is copied.
func (d *Disk) RestoreState(st *State) {
	lses := d.st.LSEs[:0]
	d.st = *st
	d.st.LSEs = append(lses, st.LSEs...)
	d.st.CacheSegs = nil
	d.cache.clock = st.CacheClock
	d.cache.segments = d.cache.segments[:0]
	for _, s := range st.CacheSegs {
		d.cache.segments = append(d.cache.segments, segment{start: s.Start, end: s.End, lastUse: s.LastUse})
	}
	d.cache.reindex()
}
