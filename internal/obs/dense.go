package obs

import (
	"fmt"
	"slices"
	"sort"
	"time"
)

// Dense values: a registry's whole state is one []int64, instruments in
// creation order, and every instrument handle writes into its window of
// it. Parking a fleet member is AppendValues into a reused buffer and
// hydrating it is SetValues, one copy each; a name-keyed Snapshot is
// built from a vector only where one is exported (Layout.Snapshot). Per
// instrument the vector holds
//
//	counter:   value
//	gauge:     value, max, seen (0 or 1)
//	histogram: count, sum, min, max, then one count per bucket (the
//	           overflow bucket last)
//
// A vector means something only against the Layout it was written with;
// every Layout method checks the vector's width, and Equal compares
// names, kinds and histogram bounds, so a vector from another schema is
// an explicit error rather than silently misread.

// kind is an instrument type in a Layout.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

// histHeader is the number of scalar values ahead of a histogram's
// bucket counts: count, sum, min, max.
const histHeader = 4

// Layout is the schema of a registry's dense value vector: its
// instruments' names, kinds and histogram bounds, in creation order.
type Layout struct {
	entries []layoutEntry
	width   int
}

type layoutEntry struct {
	name   string
	kind   kind
	bounds []time.Duration // histograms only; shared, never mutated
	off    int             // offset of the first value in the vector
}

// size returns the number of vector values the entry occupies.
func (e *layoutEntry) size() int {
	switch e.kind {
	case kindCounter:
		return 1
	case kindGauge:
		return 3
	default:
		return histHeader + len(e.bounds) + 1
	}
}

func (l *Layout) add(name string, k kind, bounds []time.Duration) {
	l.entries = append(l.entries, layoutEntry{name: name, kind: k, bounds: bounds, off: l.width})
	l.width += l.entries[len(l.entries)-1].size()
}

// Width returns the length of a value vector of this layout.
func (l *Layout) Width() int { return l.width }

// Layout returns a copy of the registry's current layout. Instruments
// created later extend the registry's layout, not the copy.
func (r *Registry) Layout() *Layout {
	if r == nil {
		return &Layout{}
	}
	return &Layout{entries: slices.Clone(r.layout.entries), width: r.layout.width}
}

// AppendValues appends the registry's dense value vector to dst and
// returns the extended slice. With a dst of sufficient capacity it does
// not allocate.
func (r *Registry) AppendValues(dst []int64) []int64 {
	if r == nil {
		return dst
	}
	return append(dst, r.vals...)
}

// SetValues overwrites every instrument of the registry from a dense
// value vector written by AppendValues against the same layout. A vector
// of another width is an error and leaves the registry unchanged.
func (r *Registry) SetValues(vals []int64) error {
	if r == nil {
		return fmt.Errorf("obs: SetValues on a nil Registry")
	}
	if err := r.layout.checkWidth(vals); err != nil {
		return err
	}
	copy(r.vals, vals)
	return nil
}

// Equal reports whether two layouts describe the same vector: the same
// instruments, names, kinds and histogram bounds, in the same order.
func (l *Layout) Equal(o *Layout) bool {
	if l.width != o.width || len(l.entries) != len(o.entries) {
		return false
	}
	for i := range l.entries {
		a, b := &l.entries[i], &o.entries[i]
		if a.name != b.name || a.kind != b.kind || !slices.Equal(a.bounds, b.bounds) {
			return false
		}
	}
	return true
}

func (l *Layout) checkWidth(vals []int64) error {
	if len(vals) != l.width {
		return fmt.Errorf("obs: %d values for a layout of width %d", len(vals), l.width)
	}
	return nil
}

// Merge folds the vector src into dst, both of this layout, with the
// semantics of MergeSnapshot: counters and histogram buckets add, gauge
// values add and their maxima take the max, histogram minima and maxima
// widen. It is commutative and associative, so shard vectors reduce to
// the same fleet view in any order.
func (l *Layout) Merge(dst, src []int64) error {
	if err := l.checkWidth(dst); err != nil {
		return err
	}
	if err := l.checkWidth(src); err != nil {
		return err
	}
	for i := range l.entries {
		e := &l.entries[i]
		mergeWindow(e.kind, dst[e.off:e.off+e.size()], src[e.off:e.off+e.size()])
	}
	return nil
}

// mergeWindow folds one instrument's window s into d, both of kind k.
func mergeWindow(k kind, d, s []int64) {
	switch k {
	case kindCounter:
		d[0] += s[0]
	case kindGauge:
		d[0] += s[0]
		if d[2] == 0 || s[1] > d[1] {
			d[1] = s[1]
		}
		d[2] = 1
	default:
		if s[0] == 0 {
			return
		}
		for j := histHeader; j < len(d); j++ {
			d[j] += s[j]
		}
		if d[0] == 0 || s[2] < d[2] {
			d[2] = s[2]
		}
		if s[3] > d[3] {
			d[3] = s[3]
		}
		d[0] += s[0]
		d[1] += s[1]
	}
}

// Snapshot builds the name-sorted Snapshot of a vector of this layout,
// identical to the Snapshot of a registry holding those values.
func (l *Layout) Snapshot(vals []int64) (Snapshot, error) {
	if err := l.checkWidth(vals); err != nil {
		return Snapshot{}, err
	}
	return l.snapshot(vals), nil
}

func (l *Layout) snapshot(vals []int64) Snapshot {
	var s Snapshot
	for i := range l.entries {
		e := &l.entries[i]
		v := vals[e.off : e.off+e.size()]
		switch e.kind {
		case kindCounter:
			s.Counters = append(s.Counters, CounterSnap{Name: e.name, Value: v[0]})
		case kindGauge:
			s.Gauges = append(s.Gauges, GaugeSnap{Name: e.name, Value: v[0], Max: v[1]})
		default:
			s.Histograms = append(s.Histograms, histSnap(e.name, e.bounds, v))
		}
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// histSnap builds a histogram's snapshot from its slice of a vector.
func histSnap(name string, bounds []time.Duration, v []int64) HistSnap {
	hs := HistSnap{
		Name:     name,
		Count:    v[0],
		SumNanos: v[1],
		MinNanos: v[2],
		MaxNanos: v[3],
		Buckets:  make([]HistBucket, 0, len(v)-histHeader),
	}
	for i, c := range v[histHeader:] {
		le := int64(-1)
		if i < len(bounds) {
			le = int64(bounds[i])
		}
		hs.Buckets = append(hs.Buckets, HistBucket{LeNanos: le, Count: c})
	}
	return hs
}

// Values is the inverse of Snapshot: the vector of this layout holding
// a snapshot's values. The snapshot must carry exactly the layout's
// instruments, histograms on the same bounds; anything else is an error.
// Gauges come back seen, as MergeSnapshot restores them.
func (l *Layout) Values(s Snapshot) ([]int64, error) {
	counters := make(map[string]int64, len(s.Counters))
	for _, c := range s.Counters {
		counters[c.Name] = c.Value
	}
	gauges := make(map[string]GaugeSnap, len(s.Gauges))
	for _, g := range s.Gauges {
		gauges[g.Name] = g
	}
	hists := make(map[string]HistSnap, len(s.Histograms))
	for _, h := range s.Histograms {
		hists[h.Name] = h
	}
	if len(counters)+len(gauges)+len(hists) != len(l.entries) {
		return nil, fmt.Errorf("obs: snapshot has %d instruments, layout %d",
			len(counters)+len(gauges)+len(hists), len(l.entries))
	}
	vals := make([]int64, 0, l.width)
	for i := range l.entries {
		e := &l.entries[i]
		switch e.kind {
		case kindCounter:
			v, ok := counters[e.name]
			if !ok {
				return nil, fmt.Errorf("obs: snapshot lacks counter %q", e.name)
			}
			vals = append(vals, v)
		case kindGauge:
			g, ok := gauges[e.name]
			if !ok {
				return nil, fmt.Errorf("obs: snapshot lacks gauge %q", e.name)
			}
			vals = append(vals, g.Value, g.Max, 1)
		default:
			h, ok := hists[e.name]
			if !ok {
				return nil, fmt.Errorf("obs: snapshot lacks histogram %q", e.name)
			}
			bounds, w, err := histWindow(h)
			if err != nil {
				return nil, err
			}
			if !slices.Equal(bounds, e.bounds) {
				return nil, fmt.Errorf("obs: histogram %q bucket bounds differ from the layout's", e.name)
			}
			vals = append(vals, w...)
		}
	}
	return vals, nil
}
