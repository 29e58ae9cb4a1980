package trace

import (
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// This file decodes the SNIA MSR-Cambridge CSV format, the format of the
// real files behind Table I:
//
//	Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime
//
// where Timestamp is a Windows FILETIME (100 ns ticks since 1601-01-01),
// Type is "Read"/"Write", and Offset/Size are in bytes. Timestamps are
// normalized to start at zero; records are expected in timestamp order
// (small inversions, which occur in the published files, are clamped).
// Real exports are Windows-generated: a UTF-8 BOM and CRLF line endings
// are tolerated.

// MSROptions filters an MSR-format decode.
type MSROptions struct {
	// Name labels the resulting trace.
	Name string
	// Hostname keeps only records from this host ("" = all).
	Hostname string
	// DiskNumber keeps only this disk (-1 = all).
	DiskNumber int
	// MaxRecords caps the decode (0 = unlimited).
	MaxRecords int
}

// MSRSource streams records out of an MSR-Cambridge CSV in constant
// memory: one bufio buffer, no per-line allocations on the accept path.
type MSRSource struct {
	opts   MSROptions
	r      io.Reader
	lr     *lineReader
	closer io.Closer

	base     int64
	haveBase bool
	prev     time.Duration
	maxEnd   int64
	n        int
	sticky   error
}

// NewMSRSource wraps a reader as a streaming MSR decoder. Reset requires
// the reader to implement io.Seeker (files do; pipes return
// ErrNotResettable).
func NewMSRSource(r io.Reader, opts MSROptions) *MSRSource {
	return &MSRSource{opts: opts, r: r, lr: newLineReader(r)}
}

// OpenMSR opens an MSR-Cambridge CSV file as a resettable, closable
// source. The options' Name defaults to the path.
func OpenMSR(path string, opts MSROptions) (*MSRSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if opts.Name == "" {
		opts.Name = path
	}
	src := NewMSRSource(f, opts)
	src.closer = f
	return src, nil
}

// Next implements Source: it scans to the next record passing the host
// and disk filters, normalizes its timestamp and returns it.
//
//scrub:hotpath
func (m *MSRSource) Next(rec *Record) error {
	if m.sticky != nil {
		return m.sticky
	}
	if m.opts.MaxRecords > 0 && m.n >= m.opts.MaxRecords {
		return io.EOF
	}
	for {
		line, err := m.lr.next()
		if err == io.EOF {
			return io.EOF
		}
		if err != nil {
			m.sticky = err
			return err
		}
		line = trimBytes(line)
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		ok, err := m.parseLine(line, rec)
		if err != nil {
			m.sticky = err
			return err
		}
		if !ok {
			continue // filtered out
		}
		m.n++
		return nil
	}
}

// parseLine decodes one CSV line into rec, applying filters; ok reports
// whether the record passed them. One pass over the line cuts its six
// leading fields in place and parses the integer ones as they are cut;
// the checks then run in a fixed order: field count, timestamp, host
// filter, disk number and disk filter, type, offset, size, extent, span.
func (m *MSRSource) parseLine(line []byte, rec *Record) (ok bool, err error) {
	ticks, okTicks, e0 := scanIntField(line, 0)
	if e0 == len(line) {
		return false, m.short(1)
	}
	e1 := cutField(line, e0+1)
	if e1 == len(line) {
		return false, m.short(2)
	}
	diskNo, okDisk, e2 := scanIntField(line, e1+1)
	if e2 == len(line) {
		return false, m.short(3)
	}
	e3 := cutField(line, e2+1)
	if e3 == len(line) {
		return false, m.short(4)
	}
	offset, okOffset, e4 := scanIntField(line, e3+1)
	if e4 == len(line) {
		return false, m.short(5)
	}
	size, okSize, e5 := scanIntField(line, e4+1)

	if !okTicks || ticks < 0 {
		return false, m.errf("timestamp %q", line[:e0])
	}
	if m.opts.Hostname != "" && !equalFoldASCII(trimBytes(line[e0+1:e1]), m.opts.Hostname) {
		return false, nil
	}
	if !okDisk {
		return false, m.errf("disk number %q", line[e1+1:e2])
	}
	if m.opts.DiskNumber >= 0 && diskNo != int64(m.opts.DiskNumber) {
		return false, nil
	}
	var write bool
	switch typ := trimBytes(line[e2+1 : e3]); {
	case equalFoldASCII(typ, "read"):
		write = false
	case equalFoldASCII(typ, "write"):
		write = true
	default:
		return false, m.errf("type %q", line[e2+1:e3])
	}
	if !okOffset || offset < 0 {
		return false, m.errf("offset %q", line[e3+1:e4])
	}
	if !okSize || size <= 0 || size > math.MaxInt64-511 {
		return false, m.errf("size %q", line[e4+1:e5])
	}
	lba := offset / 512
	sectors := (size + 511) / 512
	if sectors > math.MaxInt64-lba {
		return false, m.errf("extent [%d,+%d) out of range", lba, sectors)
	}
	if !m.haveBase {
		m.base = ticks
		m.haveBase = true
	}
	if ticks-m.base > math.MaxInt64/100 {
		return false, m.errf("timestamp %d overflows the trace span", ticks)
	}
	arrival := time.Duration(ticks-m.base) * 100 * time.Nanosecond
	if arrival < m.prev {
		arrival = m.prev // clamp the occasional inversion
	}
	m.prev = arrival
	rec.Arrival = arrival
	rec.LBA = lba
	rec.Sectors = sectors
	rec.Write = write
	if end := lba + sectors; end > m.maxEnd {
		m.maxEnd = end
	}
	return true, nil
}

// short reports a line that ended after n < 6 fields.
func (m *MSRSource) short(n int) error {
	return m.errf("want >= 6 fields, got %d", n)
}

// errf builds a line-annotated ErrBadFormat.
func (m *MSRSource) errf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrBadFormat, m.lr.lineNo, fmt.Sprintf(format, args...))
}

// Reset implements Source.
func (m *MSRSource) Reset() error {
	sk, ok := m.r.(io.Seeker)
	if !ok {
		return ErrNotResettable
	}
	if _, err := sk.Seek(0, io.SeekStart); err != nil {
		return err
	}
	m.lr.reset(m.r)
	m.base, m.haveBase, m.prev, m.maxEnd, m.n, m.sticky = 0, false, 0, 0, 0, nil
	return nil
}

// DiskSectors implements Source: the largest extent end seen so far.
func (m *MSRSource) DiskSectors() int64 { return m.maxEnd }

// Name implements Source.
func (m *MSRSource) Name() string { return m.opts.Name }

// Close closes the underlying file when the source was opened from a
// path; otherwise it is a no-op.
func (m *MSRSource) Close() error {
	if m.closer != nil {
		return m.closer.Close()
	}
	return nil
}

// WriteMSR encodes a source in the 7-column MSR-Cambridge CSV layout
// (ResponseTime written as zero) — the fixture-side complement of
// MSRSource, used by tests and the scrubbench trace suite to fabricate
// real-format files of any size without redistribution concerns.
func WriteMSR(w io.Writer, src Source, hostname string, diskNumber int) error {
	bw := newBulkWriter(w)
	var rec Record
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		// 100ns ticks; arrivals are durations, so the epoch is zero.
		bw.int(int64(rec.Arrival / (100 * time.Nanosecond)))
		bw.byte(',')
		bw.str(hostname)
		bw.byte(',')
		bw.int(int64(diskNumber))
		if rec.Write {
			bw.str(",Write,")
		} else {
			bw.str(",Read,")
		}
		bw.int(rec.LBA * 512)
		bw.byte(',')
		bw.int(rec.Sectors * 512)
		bw.str(",0\r\n") // real exports are CRLF-terminated
		if bw.err != nil {
			return bw.err
		}
	}
	return bw.flush()
}
