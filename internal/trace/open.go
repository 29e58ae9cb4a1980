package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"
)

// Format identifies a trace file encoding.
type Format int

const (
	// FormatUnknown means sniffing failed.
	FormatUnknown Format = iota
	// FormatNative is this package's own CSV (arrival_us,op,lba,sectors).
	FormatNative
	// FormatMSR is the SNIA MSR-Cambridge 7-column CSV.
	FormatMSR
	// FormatCello is the HP Cello/SRT whitespace text layout.
	FormatCello
	// FormatBlktrace is the Linux blktrace binary stream.
	FormatBlktrace
	// FormatCache is this package's columnar cache (SCRBTRC1).
	FormatCache
)

// String names the format for reports and flag values.
func (f Format) String() string {
	switch f {
	case FormatNative:
		return "native"
	case FormatMSR:
		return "msr"
	case FormatCello:
		return "cello"
	case FormatBlktrace:
		return "blktrace"
	case FormatCache:
		return "cache"
	default:
		return "unknown"
	}
}

// ParseFormat maps a flag value ("auto", "native", "msr", "cello",
// "blktrace", "cache") to a Format; "auto" and "" return FormatUnknown,
// which Open treats as "sniff it".
func ParseFormat(s string) (Format, error) {
	switch s {
	case "", "auto":
		return FormatUnknown, nil
	case "native":
		return FormatNative, nil
	case "msr":
		return FormatMSR, nil
	case "cello":
		return FormatCello, nil
	case "blktrace":
		return FormatBlktrace, nil
	case "cache":
		return FormatCache, nil
	default:
		return FormatUnknown, fmt.Errorf("trace: unknown format %q", s)
	}
}

// DetectFormat sniffs a trace file's encoding from its leading bytes:
// the cache and blktrace magics identify the binary formats; for text,
// the first content line's shape separates native CSV (its fixed header
// or metadata comment), MSR-Cambridge CSV (comma fields) and Cello/SRT
// (whitespace fields).
func DetectFormat(path string) (Format, error) {
	f, err := os.Open(path)
	if err != nil {
		return FormatUnknown, err
	}
	defer f.Close()
	head := make([]byte, 4096)
	n, err := io.ReadFull(f, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return FormatUnknown, err
	}
	return sniff(head[:n]), nil
}

// sniff classifies a file prefix. Returns FormatUnknown when nothing
// matches.
func sniff(head []byte) Format {
	if bytes.HasPrefix(head, []byte(cacheMagic)) {
		return FormatCache
	}
	if len(head) >= 4 {
		le := binary.LittleEndian.Uint32(head[0:4])
		be := binary.BigEndian.Uint32(head[0:4])
		if le&blkMagicMask == blkMagicBase || be&blkMagicMask == blkMagicBase {
			return FormatBlktrace
		}
	}
	// Text: find the first non-blank line (tolerating a BOM).
	rest := bytes.TrimPrefix(head, utf8BOM)
	for len(rest) > 0 {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		line = trimBytes(bytes.TrimSuffix(line, []byte("\r")))
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			// Comments are format-neutral, except the native metadata line.
			if _, _, ok := parseMeta(string(line)); ok {
				return FormatNative
			}
			continue
		}
		if string(line) == header {
			return FormatNative
		}
		if fields := bytes.Split(line, []byte(",")); len(fields) >= 6 {
			return FormatMSR
		}
		if fields := splitSpace(line, nil); len(fields) >= 5 {
			return FormatCello
		}
		return FormatUnknown
	}
	return FormatUnknown
}

// Open opens a trace file of any supported encoding as a resettable,
// closable Source. With FormatUnknown the encoding is sniffed from the
// file's leading bytes. Close the source with CloseSource.
func Open(path string, format Format) (Source, error) {
	if format == FormatUnknown {
		var err error
		if format, err = DetectFormat(path); err != nil {
			return nil, err
		}
		if format == FormatUnknown {
			return nil, fmt.Errorf("%w: %s: unrecognized trace encoding", ErrBadFormat, path)
		}
	}
	switch format {
	case FormatNative:
		return OpenNative(path)
	case FormatMSR:
		return OpenMSR(path, MSROptions{DiskNumber: -1})
	case FormatCello:
		return OpenCello(path, CelloOptions{Device: -1})
	case FormatBlktrace:
		return OpenBlktrace(path, BlktraceOptions{})
	case FormatCache:
		return OpenCache(path)
	default:
		return nil, fmt.Errorf("trace: unsupported format %v", format)
	}
}

// OpenFile is Open for the command-line tools: format is a -format flag
// value ("auto" or "" sniffs the file), and an MSR-Cambridge file is
// named by its path and filtered to msrDisk (-1 keeps every disk).
func OpenFile(path, format string, msrDisk int) (Source, error) {
	f, err := ParseFormat(format)
	if err != nil {
		return nil, err
	}
	if f == FormatUnknown {
		if f, err = DetectFormat(path); err != nil {
			return nil, err
		}
	}
	if f == FormatMSR {
		return OpenMSR(path, MSROptions{Name: path, DiskNumber: msrDisk})
	}
	return Open(path, f)
}

// CloseSource closes a source's underlying file when it has one; plain
// in-memory sources are a no-op.
func CloseSource(src Source) error {
	if c, ok := src.(sourceCloser); ok {
		return c.Close()
	}
	return nil
}

// NativeSource streams this package's own CSV in constant memory — the
// Source counterpart of Read, with the same strictness: the column
// header is required, arrivals must be non-decreasing (no clamping; the
// writer never produces inversions), and metadata comments set the name
// and address space.
type NativeSource struct {
	r      io.Reader
	lr     *lineReader
	closer io.Closer
	fields [][]byte

	name        string
	diskSectors int64
	sawHeader   bool
	prev        time.Duration
	maxEnd      int64
	sticky      error
}

// NewNativeSource wraps a reader as a streaming native-CSV decoder.
// Reset requires the reader to implement io.Seeker.
func NewNativeSource(r io.Reader) *NativeSource {
	return &NativeSource{r: r, lr: newLineReader(r)}
}

// OpenNative opens a native-CSV trace file as a resettable, closable
// source.
func OpenNative(path string) (*NativeSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	src := NewNativeSource(f)
	src.closer = f
	src.name = path
	return src, nil
}

// Next implements Source.
//
//scrub:hotpath
func (ns *NativeSource) Next(rec *Record) error {
	if ns.sticky != nil {
		return ns.sticky
	}
	for {
		line, err := ns.lr.next()
		if err == io.EOF {
			if !ns.sawHeader {
				ns.sticky = ns.errf("missing header")
				return ns.sticky
			}
			return io.EOF
		}
		if err != nil {
			ns.sticky = err
			return err
		}
		line = trimBytes(line)
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			ns.meta(line)
			continue
		}
		if !ns.sawHeader {
			if string(line) != header {
				ns.sticky = ns.errf("expected header %q, got %q", header, line)
				return ns.sticky
			}
			ns.sawHeader = true
			continue
		}
		if err := ns.parseLine(line, rec); err != nil {
			ns.sticky = err
			return err
		}
		return nil
	}
}

// meta parses an optional "# trace: NAME disk_sectors: N" comment.
func (ns *NativeSource) meta(line []byte) {
	if name, sectors, ok := parseMeta(string(line)); ok {
		if name != "" {
			ns.name = name
		}
		if sectors > 0 {
			ns.diskSectors = sectors
		}
	}
}

// parseLine decodes one arrival_us,op,lba,sectors line into rec.
func (ns *NativeSource) parseLine(line []byte, rec *Record) error {
	ns.fields = splitByte(line, ',', ns.fields)
	if len(ns.fields) != 4 {
		return ns.errf("want 4 fields, got %d", len(ns.fields))
	}
	us, okv := parseIntBytes(ns.fields[0])
	if !okv || us < 0 || us > int64(1<<63-1)/int64(time.Microsecond) {
		return ns.errf("arrival %q", ns.fields[0])
	}
	arrival := time.Duration(us) * time.Microsecond
	if arrival < ns.prev {
		return ns.errf("arrival went backwards")
	}
	var write bool
	switch op := ns.fields[1]; {
	case equalFoldASCII(op, "r"):
		write = false
	case equalFoldASCII(op, "w"):
		write = true
	default:
		return ns.errf("op %q", ns.fields[1])
	}
	lba, okv := parseIntBytes(ns.fields[2])
	if !okv {
		return ns.errf("lba %q", ns.fields[2])
	}
	sectors, okv := parseIntBytes(ns.fields[3])
	if !okv {
		return ns.errf("sectors %q", ns.fields[3])
	}
	if lba < 0 || sectors <= 0 || sectors > int64(1<<63-1)-lba {
		return ns.errf("invalid extent [%d,+%d)", lba, sectors)
	}
	ns.prev = arrival
	rec.Arrival = arrival
	rec.LBA = lba
	rec.Sectors = sectors
	rec.Write = write
	if end := lba + sectors; end > ns.maxEnd {
		ns.maxEnd = end
	}
	return nil
}

// errf builds a line-annotated ErrBadFormat.
func (ns *NativeSource) errf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrBadFormat, ns.lr.lineNo, fmt.Sprintf(format, args...))
}

// Reset implements Source.
func (ns *NativeSource) Reset() error {
	sk, ok := ns.r.(io.Seeker)
	if !ok {
		return ErrNotResettable
	}
	if _, err := sk.Seek(0, io.SeekStart); err != nil {
		return err
	}
	ns.lr.reset(ns.r)
	ns.sawHeader, ns.prev, ns.maxEnd, ns.sticky = false, 0, 0, nil
	return nil
}

// DiskSectors implements Source: the metadata value when present, else
// the largest extent end seen so far.
func (ns *NativeSource) DiskSectors() int64 {
	if ns.diskSectors > 0 {
		return ns.diskSectors
	}
	return ns.maxEnd
}

// Name implements Source.
func (ns *NativeSource) Name() string { return ns.name }

// Close closes the underlying file when the source was opened from a
// path; otherwise it is a no-op.
func (ns *NativeSource) Close() error {
	if ns.closer != nil {
		return ns.closer.Close()
	}
	return nil
}
