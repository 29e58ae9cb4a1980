package trace

import (
	"errors"
	"io"
	"time"
)

// Source is a pull iterator over trace records, the streaming counterpart
// of a materialized *Trace. It is the contract every trace producer in
// this package satisfies — slices, the synthetic generator, the
// real-format parsers (MSR-Cambridge, HP Cello/SRT, blktrace), the
// columnar cache and the uplift transform — and every consumer accepts:
// tens-of-GB traces replay, tune and transcode without ever holding more
// than a bounded window of records in memory.
//
// Records come back in non-decreasing Arrival order. Next fills rec and
// returns nil, or returns io.EOF once the source is drained (rec is then
// unspecified). Any other error is terminal: the source stays at the
// failing position until Reset.
//
// A consumer may read a source ahead of the records it has acted on:
// replay.RunSource decodes a streamed source on a ReadAhead goroutine, up
// to a ring of record batches ahead of the last replayed record. After a
// run that failed or stopped early the source's position is past that
// record, so Reset it before reading it again.
type Source interface {
	// Next fills rec with the next record; io.EOF ends the stream.
	Next(rec *Record) error
	// Reset rewinds the source to its first record. Sources over
	// non-seekable readers return ErrNotResettable.
	Reset() error
	// DiskSectors returns the address space the records target. Parser
	// sources that learn the extent as they scan return the largest end
	// seen so far (zero before the first record); the cache and slice
	// sources know it up front.
	DiskSectors() int64
	// Name labels the source for reports and errors.
	Name() string
}

// ErrNotResettable reports a Reset on a source whose underlying reader
// cannot seek (e.g. a pipe). Re-open the file or rebuild the source.
var ErrNotResettable = errors.New("trace: source not resettable")

// SliceSource adapts in-memory records to the Source interface, so every
// existing *Trace keeps working against source-based consumers. Next is
// allocation-free.
type SliceSource struct {
	name        string
	diskSectors int64
	recs        []Record
	pos         int
}

// NewSliceSource wraps records (shared, not copied) as a Source.
func NewSliceSource(name string, diskSectors int64, recs []Record) *SliceSource {
	return &SliceSource{name: name, diskSectors: diskSectors, recs: recs}
}

// Source returns a streaming view of the trace's records.
func (t *Trace) Source() *SliceSource {
	return NewSliceSource(t.Name, t.DiskSectors, t.Records)
}

// Next implements Source.
//
//scrub:hotpath
func (s *SliceSource) Next(rec *Record) error {
	if s.pos >= len(s.recs) {
		return io.EOF
	}
	*rec = s.recs[s.pos]
	s.pos++
	return nil
}

// Reset implements Source.
func (s *SliceSource) Reset() error {
	s.pos = 0
	return nil
}

// DiskSectors implements Source.
func (s *SliceSource) DiskSectors() int64 { return s.diskSectors }

// Name implements Source.
func (s *SliceSource) Name() string { return s.name }

// Len returns the number of records remaining plus consumed.
func (s *SliceSource) Len() int { return len(s.recs) }

// ReadAll drains a source into a materialized *Trace. It resets the
// source first when possible, so a partially consumed resettable source
// still yields the full trace. Name and DiskSectors are read after the
// drain, since a decoder may learn either from the stream (a native
// CSV's "# trace:" metadata line).
func ReadAll(src Source) (*Trace, error) {
	if err := src.Reset(); err != nil && err != ErrNotResettable {
		return nil, err
	}
	t := &Trace{}
	var rec Record
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		t.Records = append(t.Records, rec)
	}
	t.Name = src.Name()
	t.DiskSectors = src.DiskSectors()
	if t.DiskSectors == 0 {
		for _, r := range t.Records {
			if end := r.LBA + r.Sectors; end > t.DiskSectors {
				t.DiskSectors = end
			}
		}
	}
	return t, nil
}

// EachArrival streams the arrival-time series of a source — the
// streaming counterpart of Trace.Arrivals — calling fn for each arrival
// until it returns false or the source drains. The source is not Reset
// first; callers position it.
func EachArrival(src Source, fn func(time.Duration) bool) error {
	var rec Record
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if !fn(rec.Arrival) {
			return nil
		}
	}
}

// Count drains a source, returning the record count and the last arrival
// (the span when the source starts at zero).
func Count(src Source) (n int64, last time.Duration, err error) {
	var rec Record
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			return n, last, nil
		}
		if err != nil {
			return n, last, err
		}
		n++
		last = rec.Arrival
	}
}

// sourceCloser pairs a Source with the file it reads from.
type sourceCloser interface {
	Source
	io.Closer
}

// limitSource caps a source at max records (0 = unlimited).
type limitSource struct {
	Source
	max, seen int64
}

// Limit returns a view of src that drains after max records (max <= 0
// returns src unchanged). Reset rewinds the cap along with the source.
func Limit(src Source, max int64) Source {
	if max <= 0 {
		return src
	}
	return &limitSource{Source: src, max: max}
}

// Next implements Source.
//
//scrub:hotpath
func (l *limitSource) Next(rec *Record) error {
	if l.seen >= l.max {
		return io.EOF
	}
	if err := l.Source.Next(rec); err != nil {
		return err
	}
	l.seen++
	return nil
}

// Reset implements Source.
func (l *limitSource) Reset() error {
	if err := l.Source.Reset(); err != nil {
		return err
	}
	l.seen = 0
	return nil
}
