package obs

import (
	"fmt"
	"time"
)

// Event is one trace record, keyed on virtual time. Layer and Kind are
// static string literals at emit sites; A and B are two event-specific
// integer operands (an LBA and a sector count, a class and an LBA, …) so
// that emitting never formats or allocates.
type Event struct {
	At    time.Duration
	Layer string
	Kind  string
	A, B  int64
}

// String renders the event for human consumption (CLI dumps).
func (e Event) String() string {
	return fmt.Sprintf("t=%-14v %-10s %-16s a=%-12d b=%d", e.At, e.Layer, e.Kind, e.A, e.B)
}

// DefaultRingCapacity is the event capacity of a Registry's trace ring
// when none is specified.
const DefaultRingCapacity = 4096

// Ring is a bounded event-trace buffer: it keeps the most recent
// Capacity events and counts everything ever emitted. The nil Ring is a
// valid no-op instrument.
type Ring struct {
	buf   []Event
	next  int
	n     int
	total uint64
}

// NewRing builds a ring holding the last capacity events (<= 0 selects
// DefaultRingCapacity).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Emit appends an event, overwriting the oldest once full.
func (t *Ring) Emit(at time.Duration, layer, kind string, a, b int64) {
	if t == nil {
		return
	}
	t.buf[t.next] = Event{At: at, Layer: layer, Kind: kind, A: a, B: b}
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
	}
	if t.n < len(t.buf) {
		t.n++
	}
	t.total++
}

// Len returns the number of retained events.
func (t *Ring) Len() int {
	if t == nil {
		return 0
	}
	return t.n
}

// Total returns the number of events ever emitted, including those the
// ring has since overwritten.
func (t *Ring) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Capacity returns the ring's bound (0 for the nil Ring).
func (t *Ring) Capacity() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Events returns the retained events oldest-first.
func (t *Ring) Events() []Event {
	if t == nil || t.n == 0 {
		return nil
	}
	out := make([]Event, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.buf)
	}
	for i := 0; i < t.n; i++ {
		out = append(out, t.buf[(start+i)%len(t.buf)])
	}
	return out
}
