package obs

import "time"

// Registry owns one simulated system's instruments, keyed by dotted
// names ("disk.service_time.read"). The nil Registry is the disabled
// fast path: every getter returns a nil instrument whose methods are
// single-branch no-ops, so components can wire unconditionally.
//
// The registry's state is its dense value vector, instruments in
// creation order as its Layout lays them out (see dense.go); each
// instrument handle is a window of that vector.
//
// Like the Simulator it observes, a Registry is single-threaded by
// design; give each concurrently running system its own.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	layout   Layout
	vals     []int64 // the live state, layout.width values
	ring     *Ring
}

// Option configures a Registry at construction.
type Option func(*Registry)

// WithTrace enables the event-trace ring with the given capacity (<= 0
// selects DefaultRingCapacity).
func WithTrace(capacity int) Option {
	return func(r *Registry) { r.ring = NewRing(capacity) }
}

// New builds an empty Registry. Without WithTrace, Trace() returns nil
// and event emission is disabled (metrics still collect).
func New(opts ...Option) *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
		r.add(name, kindCounter, nil)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.add(name, kindGauge, nil)
	}
	return g
}

// Histogram returns the named histogram with the default log-spaced
// latency buckets, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, nil)
}

// HistogramBuckets returns the named histogram, creating it on first use
// over the given upper bounds, sorted and deduplicated (nil bounds select
// DefaultLatencyBuckets). Bounds are fixed at creation; later calls
// return the existing histogram.
func (r *Registry) HistogramBuckets(name string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		h.bounds, h.start = histBounds(bounds)
		r.hists[name] = h
		r.add(name, kindHistogram, h.bounds)
	}
	return h
}

// add lays out the instrument just filed under name and points it at
// its zeroed window. When the vector has to move to grow, every earlier
// instrument is pointed at its window in the new vector, so handles
// taken before an instrument is added (as MergeSnapshot adds them after
// values exist) keep writing into the registry.
func (r *Registry) add(name string, k kind, bounds []time.Duration) {
	r.layout.add(name, k, bounds)
	n := len(r.vals)
	moved := r.layout.width > cap(r.vals)
	r.vals = append(r.vals, make([]int64, r.layout.width-n)...)
	first := len(r.layout.entries) - 1
	if moved {
		first = 0
	}
	for i := first; i < len(r.layout.entries); i++ {
		r.point(&r.layout.entries[i])
	}
}

// point sets the handle of a layout entry to its window of the vector.
func (r *Registry) point(e *layoutEntry) {
	w := r.vals[e.off : e.off+e.size()]
	switch e.kind {
	case kindCounter:
		r.counters[e.name].v = &w[0]
	case kindGauge:
		r.gauges[e.name].w = (*[3]int64)(w)
	default:
		r.hists[e.name].w = w
	}
}

// Trace returns the event ring, or nil when tracing is disabled.
func (r *Registry) Trace() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}
