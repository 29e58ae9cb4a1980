package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/durable"
)

// The columnar trace cache: a compact binary encoding that makes
// re-replaying a parsed trace cheap. Parsing an MSR CSV costs text
// scanning per record; the cache stores the decoded columns directly —
// arrival deltas, LBA deltas, sector counts as varints plus a write
// bitmap — so a cached replay is bounded by varint decode, not text
// parse, and the file is typically 5-10x smaller than the CSV.
//
// Layout (integers big-endian; the frames are internal/durable's):
//
//	magic "SCRBTRC1"
//	header frame:  u32 len | body | u32 CRC32(body)
//	  body: u32 version=1, u64 recordCount, u64 diskSectors,
//	        u32 blockLen (records per block), u16 nameLen, name
//	data frames:   u32 len | body | u32 CRC32(body)  (repeated)
//	  body: u32 n, then columns for n records:
//	        arrivals  — first absolute, then deltas, uvarint ns
//	        LBAs      — first absolute, then deltas, zigzag varint
//	        sectors   — uvarint
//	        writes    — bitmap, ceil(n/8) bytes
//
// Every frame is independently CRC-checked, so corruption and
// truncation are detected at the damaged block, and each block decodes
// from its own absolute first record — a bounded, constant-memory
// streaming read.

const (
	cacheMagic    = "SCRBTRC1"
	cacheVersion  = 1
	cacheBlockLen = 8192 // records per frame: ~64-200 KB encoded

	// cacheMaxFrame bounds a frame body; larger lengths are corruption,
	// not data (a full block of worst-case varints stays far below it).
	cacheMaxFrame = 1 << 24
)

// BuildCache streams a source into a columnar cache file at path,
// returning the record count. The write goes through durable.WriteFile,
// and the header (which carries the total count) is patched before the
// rename, so a crash never leaves a live, half-written cache.
func BuildCache(path string, src Source) (int64, error) {
	var count int64
	err := durable.WriteFile(durable.OS, path, func(f durable.File) error {
		enc := newCacheEncoder(f, src.Name())
		var rec Record
		for {
			err := src.Next(&rec)
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := enc.add(rec); err != nil {
				return err
			}
		}
		count = enc.count
		// DiskSectors is read after the drain: parser sources only know
		// the full extent once scanned.
		return enc.finish(src.DiskSectors())
	})
	if err != nil {
		return 0, err
	}
	return count, nil
}

// cacheEncoder accumulates records into framed columnar blocks.
type cacheEncoder struct {
	f     durable.File
	bw    *bufio.Writer
	name  string
	block []Record
	buf   []byte // frame body scratch
	var64 [binary.MaxVarintLen64]byte
	count int64
}

func newCacheEncoder(f durable.File, name string) *cacheEncoder {
	return &cacheEncoder{
		f:     f,
		bw:    bufio.NewWriterSize(f, 1<<16),
		name:  name,
		block: make([]Record, 0, cacheBlockLen),
		buf:   make([]byte, 0, 1<<17),
	}
}

func (e *cacheEncoder) add(rec Record) error {
	if e.count == 0 && len(e.block) == 0 {
		// Reserve the header region first; it is patched in finish once
		// the count and extent are known. Length is fixed because the
		// body layout is fixed-width apart from the name.
		if err := e.writeHeader(0, 0); err != nil {
			return err
		}
	}
	e.block = append(e.block, rec)
	e.count++
	if len(e.block) == cacheBlockLen {
		return e.flushBlock()
	}
	return nil
}

// writeHeader emits magic + header frame at the current position.
func (e *cacheEncoder) writeHeader(count, diskSectors int64) error {
	if len(e.name) > math.MaxUint16 {
		return fmt.Errorf("trace: cache: name too long (%d bytes)", len(e.name))
	}
	e.buf = e.buf[:0]
	e.buf = binary.BigEndian.AppendUint32(e.buf, cacheVersion)
	e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(count))
	e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(diskSectors))
	e.buf = binary.BigEndian.AppendUint32(e.buf, cacheBlockLen)
	e.buf = binary.BigEndian.AppendUint16(e.buf, uint16(len(e.name)))
	e.buf = append(e.buf, e.name...)
	_, err := durable.WriteFrame(e.bw, cacheMagic, e.buf)
	return err
}

func (e *cacheEncoder) uvarint(v uint64) {
	n := binary.PutUvarint(e.var64[:], v)
	e.buf = append(e.buf, e.var64[:n]...)
}

func (e *cacheEncoder) svarint(v int64) {
	n := binary.PutVarint(e.var64[:], v)
	e.buf = append(e.buf, e.var64[:n]...)
}

func (e *cacheEncoder) flushBlock() error {
	n := len(e.block)
	if n == 0 {
		return nil
	}
	e.buf = e.buf[:0]
	e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(n))
	// Arrivals: absolute first, non-negative ns deltas after.
	e.uvarint(uint64(e.block[0].Arrival))
	for i := 1; i < n; i++ {
		e.uvarint(uint64(e.block[i].Arrival - e.block[i-1].Arrival))
	}
	// LBAs: absolute first (zigzag handles any sign), deltas after.
	e.svarint(e.block[0].LBA)
	for i := 1; i < n; i++ {
		e.svarint(e.block[i].LBA - e.block[i-1].LBA)
	}
	for i := 0; i < n; i++ {
		e.uvarint(uint64(e.block[i].Sectors))
	}
	bitmap := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if e.block[i].Write {
			bitmap[i/8] |= 1 << uint(i%8)
		}
	}
	e.buf = append(e.buf, bitmap...)
	e.block = e.block[:0]
	_, err := durable.WriteFrame(e.bw, "", e.buf)
	return err
}

// finish flushes the tail block and patches the header with the final
// count and extent.
func (e *cacheEncoder) finish(diskSectors int64) error {
	if e.count == 0 {
		// Header was never reserved (empty source); write it now.
		if err := e.writeHeader(0, diskSectors); err != nil {
			return err
		}
		return e.bw.Flush()
	}
	if err := e.flushBlock(); err != nil {
		return err
	}
	if err := e.bw.Flush(); err != nil {
		return err
	}
	if _, err := e.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	e.bw.Reset(e.f)
	if err := e.writeHeader(e.count, diskSectors); err != nil {
		return err
	}
	return e.bw.Flush()
}

// CacheSource streams records back out of a columnar cache file,
// decoding one CRC-verified block at a time.
type CacheSource struct {
	r      io.Reader
	br     *bufio.Reader
	closer io.Closer

	name        string
	count       int64
	diskSectors int64
	dataOff     int64 // file offset of the first data frame

	block   []Record
	pos     int
	decoded int64
	buf     []byte
	sticky  error
}

// NewCacheSource wraps a reader positioned at the start of a cache
// stream. Reset requires the reader to implement io.Seeker.
func NewCacheSource(r io.Reader) (*CacheSource, error) {
	c := &CacheSource{r: r, br: bufio.NewReaderSize(r, 1<<16), buf: make([]byte, 0, 1<<17)}
	if err := c.readHeader(); err != nil {
		return nil, err
	}
	return c, nil
}

// OpenCache opens a columnar cache file as a resettable, closable
// source.
func OpenCache(path string) (*CacheSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	c, err := NewCacheSource(f)
	if err != nil {
		f.Close() //scrublint:allow errsink error path discards the read-only close; the open error propagates
		return nil, err
	}
	c.closer = f
	if c.name == "" {
		c.name = path
	}
	return c, nil
}

// readHeader validates the magic and header frame.
func (c *CacheSource) readHeader() error {
	body, err := durable.ReadFrame(c.br, cacheMagic, c.buf, cacheMaxFrame)
	if err != nil {
		return fmt.Errorf("%w: cache: header: %v", ErrBadFormat, err)
	}
	if len(body) < 4+8+8+4+2 {
		return fmt.Errorf("%w: cache: header too short", ErrBadFormat)
	}
	if v := binary.BigEndian.Uint32(body[0:4]); v != cacheVersion {
		return fmt.Errorf("%w: cache: unsupported version %d", ErrBadFormat, v)
	}
	count := binary.BigEndian.Uint64(body[4:12])
	sectors := binary.BigEndian.Uint64(body[12:20])
	if count > math.MaxInt64 || sectors > math.MaxInt64 {
		return fmt.Errorf("%w: cache: header counts out of range", ErrBadFormat)
	}
	c.count = int64(count)
	c.diskSectors = int64(sectors)
	nameLen := int(binary.BigEndian.Uint16(body[24:26]))
	if len(body) != 4+8+8+4+2+nameLen {
		return fmt.Errorf("%w: cache: header length mismatch", ErrBadFormat)
	}
	c.name = string(body[26 : 26+nameLen])
	c.dataOff = int64(len(cacheMagic)) + 4 + int64(len(body)) + 4
	return nil
}

// Next implements Source.
//
//scrub:hotpath
func (c *CacheSource) Next(rec *Record) error {
	if c.pos < len(c.block) {
		*rec = c.block[c.pos]
		c.pos++
		return nil
	}
	if c.sticky != nil {
		return c.sticky
	}
	if err := c.refill(); err != nil {
		if err != io.EOF {
			c.sticky = err
		}
		return err
	}
	*rec = c.block[0]
	c.pos = 1
	return nil
}

// refill decodes the next block into c.block.
func (c *CacheSource) refill() error {
	if c.decoded >= c.count {
		// All advertised records seen; any trailing bytes are corruption.
		if _, err := c.br.ReadByte(); err != io.EOF {
			return fmt.Errorf("%w: cache: trailing data after %d records", ErrBadFormat, c.decoded)
		}
		return io.EOF
	}
	body, err := durable.ReadFrame(c.br, "", c.buf, cacheMaxFrame)
	if err != nil {
		return fmt.Errorf("%w: cache: block at record %d: %v", ErrBadFormat, c.decoded, err)
	}
	c.buf = body
	if len(body) < 4 {
		return fmt.Errorf("%w: cache: block too short", ErrBadFormat)
	}
	n := int(binary.BigEndian.Uint32(body[0:4]))
	if n <= 0 || n > cacheBlockLen || int64(n) > c.count-c.decoded {
		return fmt.Errorf("%w: cache: block of %d records at record %d", ErrBadFormat, n, c.decoded)
	}
	body = body[4:]
	if cap(c.block) < n {
		c.block = make([]Record, n)
	}
	c.block = c.block[:n]

	// Arrivals.
	prevA := int64(0)
	for i := 0; i < n; i++ {
		v, k := binary.Uvarint(body)
		if k <= 0 || v > math.MaxInt64 {
			return c.corrupt("arrival", i)
		}
		body = body[k:]
		if i == 0 {
			prevA = int64(v)
		} else {
			if int64(v) > math.MaxInt64-prevA {
				return c.corrupt("arrival", i)
			}
			prevA += int64(v)
		}
		c.block[i].Arrival = time.Duration(prevA)
	}
	// LBAs.
	prevL := int64(0)
	for i := 0; i < n; i++ {
		v, k := binary.Varint(body)
		if k <= 0 {
			return c.corrupt("lba", i)
		}
		body = body[k:]
		if i == 0 {
			prevL = v
		} else {
			s := prevL + v
			if (v > 0 && s < prevL) || (v < 0 && s > prevL) {
				return c.corrupt("lba", i)
			}
			prevL = s
		}
		if prevL < 0 {
			return c.corrupt("lba", i)
		}
		c.block[i].LBA = prevL
	}
	// Sectors.
	for i := 0; i < n; i++ {
		v, k := binary.Uvarint(body)
		if k <= 0 || v == 0 || v > math.MaxInt64 {
			return c.corrupt("sectors", i)
		}
		body = body[k:]
		c.block[i].Sectors = int64(v)
	}
	// Write bitmap.
	if len(body) != (n+7)/8 {
		return fmt.Errorf("%w: cache: block bitmap length mismatch", ErrBadFormat)
	}
	for i := 0; i < n; i++ {
		c.block[i].Write = body[i/8]&(1<<uint(i%8)) != 0
	}
	c.decoded += int64(n)
	return nil
}

func (c *CacheSource) corrupt(col string, i int) error {
	return fmt.Errorf("%w: cache: corrupt %s column at record %d", ErrBadFormat, col, c.decoded+int64(i))
}

// Reset implements Source.
func (c *CacheSource) Reset() error {
	sk, ok := c.r.(io.Seeker)
	if !ok {
		return ErrNotResettable
	}
	if _, err := sk.Seek(c.dataOff, io.SeekStart); err != nil {
		return err
	}
	c.br.Reset(c.r)
	c.block = c.block[:0]
	c.pos, c.decoded, c.sticky = 0, 0, nil
	return nil
}

// DiskSectors implements Source: known up front from the header.
func (c *CacheSource) DiskSectors() int64 { return c.diskSectors }

// Name implements Source.
func (c *CacheSource) Name() string { return c.name }

// Len returns the total record count from the header.
func (c *CacheSource) Len() int64 { return c.count }

// Close closes the underlying file when the source was opened from a
// path; otherwise it is a no-op.
func (c *CacheSource) Close() error {
	if c.closer != nil {
		return c.closer.Close()
	}
	return nil
}
