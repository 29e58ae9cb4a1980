// Package obs is the simulation's observability layer: deterministic,
// sim-time-aware metrics (counters, gauges, fixed-bucket latency
// histograms) and a bounded event-trace ring keyed on virtual time.
//
// Design constraints, in order:
//
//  1. Determinism. All state is plain memory updated from the
//     single-threaded simulation loop; bucket boundaries are fixed at
//     construction, so exported snapshots are byte-stable across runs,
//     hosts and worker counts. A Registry is NOT safe for concurrent
//     use — parallel fleets give each simulated system its own Registry,
//     exactly as each system owns its own Simulator.
//  2. Zero cost when disabled. Every instrument method has a nil-receiver
//     fast path: an uninstrumented component holds nil *Counter /
//     *Histogram / *Ring fields and each observation is a single branch
//     with zero allocations (proved by TestNilInstrumentsZeroAllocs and
//     BenchmarkReplayInstrumented).
//  3. Zero steady-state allocations when enabled. A registry's live
//     state is one []int64 value vector (dense.go), and every
//     instrument is a window of it: a counter one slot, a gauge three,
//     a histogram its count, sum, min, max and buckets. Parking a
//     fleet member and hydrating it are one copy each. The trace ring
//     is preallocated, and event payloads are two int64 operands
//     rather than formatted strings.
//  4. Constant-time observations. A histogram finds its bucket from the
//     observation's bit length: a 65-entry table, built once per bounds
//     set, names the lowest bucket that octave can land in, and Observe
//     steps up from there. The 1-2-5 defaults have at most one bound per
//     octave, so that is one table load and at most two compares. Other
//     bounds may take more steps but count by the same upper bounds.
//
// Components expose an Instrument(*Registry) method that resolves their
// named instruments once at wiring time; hot paths then touch only the
// resolved pointers.
package obs

import (
	"math/bits"
	"slices"
	"time"
)

// Counter is a monotonically increasing int64: a pointer to its slot in
// the registry's value vector. The nil Counter is a valid no-op
// instrument.
type Counter struct {
	v *int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	*c.v += n
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	*c.v++
}

// Value returns the current count (0 for the nil Counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return *c.v
}

// Gauge is a last-value instrument that also tracks the maximum ever
// set: three values of the registry's vector, the value, the max and 1
// once set. The nil Gauge is a valid no-op instrument.
type Gauge struct {
	w *[3]int64
}

// Set records the current value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	w := g.w
	w[0] = v
	if w[2] == 0 || v > w[1] {
		w[1], w[2] = v, 1
	}
}

// Value returns the last set value (0 for the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.w[0]
}

// DefaultLatencyBuckets returns the standard log-spaced (1-2-5 per
// decade) duration bucket bounds, 1 µs through 50 s. The set is fixed —
// never derived from observations — so histogram output is byte-stable
// regardless of what was observed or how work was spread over workers.
func DefaultLatencyBuckets() []time.Duration {
	out := make([]time.Duration, 0, 24)
	for base := time.Microsecond; base <= 10*time.Second; base *= 10 {
		out = append(out, base, 2*base, 5*base)
	}
	return out
}

// Histogram counts duration observations into fixed log-spaced buckets
// (upper-bound semantics: bucket i counts observations d with
// bounds[i-1] < d <= bounds[i]; one final bucket catches overflow). Its
// state is a window of the registry's vector: count, sum, min and max,
// then one count per bucket. The nil Histogram is a valid no-op
// instrument.
type Histogram struct {
	w      []int64         // histHeader + len(bounds) + 1 values
	bounds []time.Duration // ascending upper bounds; shared, never mutated
	start  *bucketIndex    // built once per bounds set
}

// bucketIndex is where Observe starts its bucket search: entry k is the
// lowest bucket whose bound is >= 2^(k-1) (>= 0 for k = 0). An
// observation d >= 0 with bits.Len64(d) = k is at least 2^(k-1), so no
// lower bucket can hold it, and Observe steps up from there while d
// exceeds the bound. With at most one bound per octave, as in the 1-2-5
// defaults, that is at most one step.
type bucketIndex [65]int32

func newBucketIndex(bounds []time.Duration) *bucketIndex {
	var ix bucketIndex
	lo := 0
	for k := range ix {
		// Negative bounds sit below every threshold; no bound reaches
		// 2^63, so entry 64 is the overflow bucket.
		for lo < len(bounds) && (bounds[lo] < 0 || k > 0 && uint64(bounds[lo]) < 1<<(k-1)) {
			lo++
		}
		ix[k] = int32(lo)
	}
	return &ix
}

// defaultBounds and defaultIndex serve every histogram on the default
// bounds, so registries share one table rather than building one each.
var (
	defaultBounds = DefaultLatencyBuckets()
	defaultIndex  = newBucketIndex(defaultBounds)
)

// histBounds returns a histogram's bounds, sorted and deduplicated, and
// their bucket table (nil bounds select the shared defaults). Duplicate
// bounds are dropped: a repeated bound is a bucket no observation can
// land in, and a snapshot, whose bounds must ascend strictly, could not
// carry it back.
func histBounds(bounds []time.Duration) ([]time.Duration, *bucketIndex) {
	if len(bounds) == 0 {
		return defaultBounds, defaultIndex
	}
	b := slices.Clone(bounds)
	slices.Sort(b)
	b = slices.Compact(b)
	return b, newBucketIndex(b)
}

// Observe records one duration. Negative observations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	i := int(h.start[bits.Len64(uint64(d))])
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	w, v := (*[histHeader]int64)(h.w), int64(d)
	h.w[histHeader+i]++
	w[0]++
	w[1] += v
	if w[0] == 1 || v < w[2] {
		w[2] = v
	}
	if v > w[3] {
		w[3] = v
	}
}

// Sum returns the sum of all observations (0 for the nil Histogram).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.w[1])
}
