package obs

import "time"

// Registry owns one simulated system's instruments, keyed by dotted
// names ("disk.service_time.read"). The nil Registry is the disabled
// fast path: every getter returns a nil instrument whose methods are
// single-branch no-ops, so components can wire unconditionally.
//
// Besides the name index, a registry lists its instruments in creation
// order. That order is its Layout, the schema of the dense value vector
// AppendValues writes and SetValues reads (see dense.go).
//
// Like the Simulator it observes, a Registry is single-threaded by
// design; give each concurrently running system its own.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	insts    []instrument // creation order, parallel to layout.entries
	layout   Layout
	ring     *Ring
}

// instrument is one registered instrument; exactly one field is set.
type instrument struct {
	c *Counter
	g *Gauge
	h *Histogram
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
		r.add(instrument{c: c}, name, kindCounter, nil)
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
		r.add(instrument{g: g}, name, kindGauge, nil)
	}
	return g
}

// Histogram returns the named histogram with the default log-spaced
// latency buckets, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramBuckets(name, nil)
}

// HistogramBuckets returns the named histogram, creating it with the
// given bounds on first use (nil bounds select the defaults). Bounds are
// fixed at creation; later calls return the existing histogram.
func (r *Registry) HistogramBuckets(name string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
		r.add(instrument{h: h}, name, kindHistogram, h.bounds)
	}
	return h
}

// add appends a new instrument to the creation order and the layout.
func (r *Registry) add(in instrument, name string, k kind, bounds []time.Duration) {
	r.insts = append(r.insts, in)
	r.layout.add(name, k, bounds)
}

// Trace returns the event ring, or nil when tracing is disabled.
func (r *Registry) Trace() *Ring {
	if r == nil {
		return nil
	}
	return r.ring
}
