package disk

// SegState is one cached segment in a disk snapshot.
type SegState struct {
	Start, End int64
	LastUse    uint64
}

// State is the compact serializable state of a Disk. The model itself is
// not embedded — the restorer supplies it (fleet members share a handful
// of models, so states stay small) — and geometry is recomputed from the
// model, so a snapshot carries only what the drive accumulated: head
// position, outstanding LSEs, counters and cache contents (including the
// LRU clock, which decides future evictions).
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

// State captures the disk's serializable state.
func (d *Disk) State() *State {
	st := &State{
		HeadCyl:      d.headCyl,
		Served:       d.served,
		MediaOps:     d.mediaOps,
		CacheHits:    d.cacheHits,
		CacheEnabled: d.cacheEnabled,
		CacheClock:   d.cache.clock,
	}
	if len(d.lses) > 0 {
		st.LSEs = append([]int64(nil), d.lses...)
	}
	for _, s := range d.cache.segments {
		st.CacheSegs = append(st.CacheSegs, SegState{Start: s.start, End: s.end, LastUse: s.lastUse})
	}
	return st
}

// RestoreState overwrites the disk with a snapshot taken from a disk of
// the same model; the disk may be fresh or may have served another
// member. Geometry and cache sizing come from that model, so only
// accumulated state is copied.
func (d *Disk) RestoreState(st *State) {
	d.headCyl = st.HeadCyl
	d.lses = append(d.lses[:0], st.LSEs...)
	d.served = st.Served
	d.mediaOps = st.MediaOps
	d.cacheHits = st.CacheHits
	d.cacheEnabled = st.CacheEnabled
	d.cache.clock = st.CacheClock
	d.cache.segments = d.cache.segments[:0]
	for _, s := range st.CacheSegs {
		d.cache.segments = append(d.cache.segments, segment{start: s.Start, end: s.End, lastUse: s.LastUse})
	}
}

// RestoreDisk rebuilds a disk of model m from a snapshot. The model must
// match the one the snapshot was taken from.
func RestoreDisk(m Model, st *State) (*Disk, error) {
	d, err := New(m)
	if err != nil {
		return nil, err
	}
	d.RestoreState(st)
	return d, nil
}
