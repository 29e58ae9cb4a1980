package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Byte-level line scanning shared by the streaming text parsers (native
// CSV, MSR-Cambridge, HP Cello/SRT). The goal is constant memory and no
// per-line allocations: lines are served out of the bufio buffer when
// they fit, fields are sliced in place (splitByte/splitSpace for the
// native and Cello decoders; the MSR decoder cuts its six fields and
// parses their digits in one pass with scanIntField), and numbers parse
// straight from bytes. Real SNIA exports are Windows-generated, so the
// reader strips a UTF-8 BOM from the first line and a trailing CR from
// every line.

// maxLineLen bounds a single trace line; anything longer is corruption,
// not data.
const maxLineLen = 1 << 20

// utf8BOM is the byte-order mark Windows tools prepend to CSV exports.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// lineReader yields one trimmed line at a time from an io.Reader.
type lineReader struct {
	br     *bufio.Reader
	long   []byte // spill buffer for lines crossing the bufio boundary
	lineNo int
	first  bool // BOM strip pending
}

func newLineReader(r io.Reader) *lineReader {
	return &lineReader{br: bufio.NewReaderSize(r, 1<<16), first: true}
}

// reset rebinds the reader (after a seek) and rewinds line accounting.
func (lr *lineReader) reset(r io.Reader) {
	lr.br.Reset(r)
	lr.lineNo = 0
	lr.first = true
}

// next returns the next line with the trailing LF/CRLF removed, valid
// until the following call. io.EOF signals a clean end; a final line
// without a newline is still returned.
func (lr *lineReader) next() ([]byte, error) {
	line, err := lr.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		// Long line: spill into the side buffer.
		lr.long = append(lr.long[:0], line...)
		for err == bufio.ErrBufferFull {
			if len(lr.long) > maxLineLen {
				return nil, fmt.Errorf("%w: line %d longer than %d bytes", ErrBadFormat, lr.lineNo+1, maxLineLen)
			}
			line, err = lr.br.ReadSlice('\n')
			lr.long = append(lr.long, line...)
		}
		line = lr.long
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return nil, err
	}
	lr.lineNo++
	if lr.first {
		lr.first = false
		if len(line) >= 3 && line[0] == utf8BOM[0] && line[1] == utf8BOM[1] && line[2] == utf8BOM[2] {
			line = line[3:]
		}
	}
	// Trim the newline and a Windows CR.
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// splitByte splits line on sep into out (reused), without copying.
func splitByte(line []byte, sep byte, out [][]byte) [][]byte {
	out = out[:0]
	start := 0
	for i := 0; i < len(line); i++ {
		if line[i] == sep {
			out = append(out, line[start:i])
			start = i + 1
		}
	}
	return append(out, line[start:])
}

// splitSpace splits line on runs of spaces/tabs into out (reused).
func splitSpace(line []byte, out [][]byte) [][]byte {
	out = out[:0]
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if i > start {
			out = append(out, line[start:i])
		}
	}
	return out
}

// trimBytes drops surrounding spaces and tabs.
func trimBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// maxFastDigits is the longest run of plain digits that parses without
// an overflow check: 10^18-1 < 2^63-1, so 18 decimal digits always fit
// an int64.
const maxFastDigits = 18

// leadingDigits returns the value and length of b's leading run of
// decimal digits. The value is exact only for runs of up to
// maxFastDigits; callers take the checked path for anything longer.
func leadingDigits(b []byte) (v int64, n int) {
	for ; n < len(b); n++ {
		d := b[n] - '0'
		if d > 9 {
			break
		}
		v = v*10 + int64(d)
	}
	return v, n
}

// parseIntBytes parses a base-10 signed integer without allocating,
// rejecting empty input, stray characters and int64 overflow. A field of
// 1–18 plain digits, the common case, skips the per-digit overflow
// check; anything else takes parseIntChecked.
func parseIntBytes(b []byte) (int64, bool) {
	if v, n := leadingDigits(b); n == len(b) && n > 0 && n <= maxFastDigits {
		return v, true
	}
	return parseIntChecked(b)
}

// parseIntChecked is parseIntBytes' general path: surrounding spaces and
// tabs, a sign, and a per-digit overflow check.
func parseIntChecked(b []byte) (int64, bool) {
	b = trimBytes(b)
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		d := int64(c - '0')
		if v > (1<<63-1-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	if neg {
		v = -v
	}
	return v, true
}

// scanIntField parses the comma-ended field of line that starts at i as
// a base-10 int64, in the same pass that finds its end: end is the index
// of the comma closing the field, or len(line) when the field runs to
// the end of the line. It accepts and rejects exactly what parseIntBytes
// does on line[i:end]: a field of 1–18 plain digits is parsed as it is
// cut, and any other field is cut at its comma and takes
// parseIntChecked.
//
//scrub:hotpath
func scanIntField(line []byte, i int) (v int64, ok bool, end int) {
	v, n := leadingDigits(line[i:])
	end = i + n
	if n > 0 && n <= maxFastDigits && (end == len(line) || line[end] == ',') {
		return v, true, end
	}
	end = cutField(line, end)
	v, ok = parseIntChecked(line[i:end])
	return v, ok, end
}

// cutField returns the index of the first comma in line at or after i,
// or len(line) when there is none.
//
//scrub:hotpath
func cutField(line []byte, i int) int {
	for i < len(line) && line[i] != ',' {
		i++
	}
	return i
}

// parseFloatBytes parses a plain fixed-notation float (the shape of SRT
// timestamps) without allocating; no exponent support.
func parseFloatBytes(b []byte) (float64, bool) {
	b = trimBytes(b)
	neg := false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, false
	}
	var v float64
	seenDigit := false
	i := 0
	for ; i < len(b) && b[i] != '.'; i++ {
		c := b[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + float64(c-'0')
		seenDigit = true
	}
	if i < len(b) { // fraction
		i++
		scale := 0.1
		for ; i < len(b); i++ {
			c := b[i]
			if c < '0' || c > '9' {
				return 0, false
			}
			v += float64(c-'0') * scale
			scale /= 10
			seenDigit = true
		}
	}
	if !seenDigit {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// bulkWriter batches text output with allocation-free integer
// formatting, for the format writers that emit millions of lines.
type bulkWriter struct {
	bw  *bufio.Writer
	tmp []byte
	err error
}

func newBulkWriter(w io.Writer) *bulkWriter {
	return &bulkWriter{bw: bufio.NewWriterSize(w, 1<<16), tmp: make([]byte, 0, 24)}
}

func (b *bulkWriter) int(v int64) {
	if b.err != nil {
		return
	}
	b.tmp = strconv.AppendInt(b.tmp[:0], v, 10)
	_, b.err = b.bw.Write(b.tmp)
}

func (b *bulkWriter) str(s string) {
	if b.err != nil {
		return
	}
	_, b.err = b.bw.WriteString(s)
}

func (b *bulkWriter) byte(c byte) {
	if b.err != nil {
		return
	}
	b.err = b.bw.WriteByte(c)
}

func (b *bulkWriter) flush() error {
	if b.err != nil {
		return b.err
	}
	return b.bw.Flush()
}

// equalFoldASCII compares a byte field against an ASCII string ignoring
// case, without allocating.
func equalFoldASCII(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c, d := b[i], s[i]
		if c == d {
			continue
		}
		// Unequal bytes match only as the two cases of one letter: they
		// differ in the case bit alone, and setting it gives a-z.
		if lc := c | 0x20; lc != d|0x20 || lc < 'a' || lc > 'z' {
			return false
		}
	}
	return true
}
