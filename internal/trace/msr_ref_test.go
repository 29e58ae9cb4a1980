package trace

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// refMSR is the MSR decoder as it stood before the one-pass field cut:
// every field split out by splitByte, every integer parsed by the
// overflow-checked loop. It is the oracle FuzzMSRDecodeMatchesReference
// holds MSRSource to, record for record and error for error.
type refMSR struct {
	opts   MSROptions
	lr     *lineReader
	fields [][]byte

	base     int64
	haveBase bool
	prev     time.Duration
	maxEnd   int64
	sticky   error
}

func newRefMSR(r io.Reader, opts MSROptions) *refMSR {
	return &refMSR{opts: opts, lr: newLineReader(r)}
}

func (m *refMSR) Next(rec *Record) error {
	if m.sticky != nil {
		return m.sticky
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
			continue
		}
		return nil
	}
}

func (m *refMSR) parseLine(line []byte, rec *Record) (ok bool, err error) {
	m.fields = splitByte(line, ',', m.fields)
	if len(m.fields) < 6 {
		return false, m.errf("want >= 6 fields, got %d", len(m.fields))
	}
	ticks, okv := refParseInt(m.fields[0])
	if !okv || ticks < 0 {
		return false, m.errf("timestamp %q", m.fields[0])
	}
	if m.opts.Hostname != "" && !equalFoldASCII(trimBytes(m.fields[1]), m.opts.Hostname) {
		return false, nil
	}
	diskNo, okv := refParseInt(m.fields[2])
	if !okv {
		return false, m.errf("disk number %q", m.fields[2])
	}
	if m.opts.DiskNumber >= 0 && diskNo != int64(m.opts.DiskNumber) {
		return false, nil
	}
	var write bool
	switch typ := trimBytes(m.fields[3]); {
	case equalFoldASCII(typ, "read"):
		write = false
	case equalFoldASCII(typ, "write"):
		write = true
	default:
		return false, m.errf("type %q", m.fields[3])
	}
	offset, okv := refParseInt(m.fields[4])
	if !okv || offset < 0 {
		return false, m.errf("offset %q", m.fields[4])
	}
	size, okv := refParseInt(m.fields[5])
	if !okv || size <= 0 || size > math.MaxInt64-511 {
		return false, m.errf("size %q", m.fields[5])
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
		arrival = m.prev
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

func (m *refMSR) errf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: %s", ErrBadFormat, m.lr.lineNo, fmt.Sprintf(format, args...))
}

// refParseInt is the overflow-checked integer parse applied to every
// digit, independent of the fast path under test.
func refParseInt(b []byte) (int64, bool) {
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

// msrDiffOptions are the filter settings every differential input is
// decoded under: no filter, each filter alone, and both.
var msrDiffOptions = []MSROptions{
	{DiskNumber: -1},
	{Hostname: "src1", DiskNumber: -1},
	{DiskNumber: 1},
	{Hostname: "src1", DiskNumber: 1},
}

// checkMSRMatchesReference decodes data with MSRSource and refMSR under
// opts and fails on the first difference in a record, the running
// DiskSectors or the terminal error's text.
func checkMSRMatchesReference(t *testing.T, data string, opts MSROptions) {
	t.Helper()
	got := NewMSRSource(strings.NewReader(data), opts)
	want := newRefMSR(strings.NewReader(data), opts)
	var g, w Record
	for i := 0; i <= 1<<16; i++ {
		gerr, werr := got.Next(&g), want.Next(&w)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%+v: step %d: err %v, reference %v\ninput %q", opts, i, gerr, werr, data)
		}
		if gerr != nil {
			return
		}
		if g != w {
			t.Fatalf("%+v: record %d = %+v, reference %+v\ninput %q", opts, i, g, w, data)
		}
		if got.DiskSectors() != want.maxEnd {
			t.Fatalf("%+v: record %d: DiskSectors %d, reference %d\ninput %q", opts, i, got.DiskSectors(), want.maxEnd, data)
		}
	}
}

// msrDiffSeeds are the differential cases beyond FuzzParseMSRCambridge's
// seeds: the 18/19-digit boundary, int64 limits, signs and padding,
// empty fields, short and long lines, and filters meeting short lines.
var msrDiffSeeds = []string{
	// 18, 19 and 20 digits in each integer field.
	"999999999999999999,src1,1,Read,999999999999999999,999999999999999999,0\n",
	"1000000000000000000,src1,1,Read,1000000000000000000,4096,0\n",
	"0,src1,1,Read,9999999999999999999,4096,0\n",
	"12345678901234567890,src1,1,Read,0,4096,0\n",
	"0,src1,999999999999999999,Read,0,512,0\n",
	"0,src1,1000000000000000001,Read,0,512,0\n",
	"0,src1,1,Read,0,10000000000000000000\n",
	"000000000000000000000000001,src1,1,Read,0,512,0\n",
	// int64 limits.
	"9223372036854775807,src1,1,Read,0,512,0\n",
	"9223372036854775808,src1,1,Read,0,512,0\n",
	"-9223372036854775808,src1,1,Read,0,512,0\n",
	"0,src1,1,Read,9223372036854775807,512,0\n",
	"0,src1,1,Read,9223372036854775808,512,0\n",
	"0,src1,1,Read,-9223372036854775808,512,0\n",
	"0,src1,1,Read,0,9223372036854775807,0\n",
	"0,src1,1,Read,0,9223372036854775296,0\n",
	"0,src1,9223372036854775807,Read,0,512,0\n",
	"0,src1,-9223372036854775808,Read,0,512,0\n",
	"0,src1,9223372036854775808,Read,0,512,0\n",
	// Signs, spaces and tabs.
	"+5,src1,+1,Read,+512,+512,0\n",
	"-5,src1,1,Read,0,512,0\n",
	"5,src1,-1,Read,0,512,0\n",
	"5,src1,1,Read,-0,512,0\n",
	"5,src1,1,Read,0,-512,0\n",
	" 5,src1, 1,Read, 512 ,512\t,0\n",
	"5\t,\tsrc1\t,1\t,\tRead\t,0\t,\t512\n",
	"5 , SRC1 ,1 , write ,0 ,512 \n",
	"5,src 1,1,Read,0,512,0\n",
	"5,src1,1 2,Read,0,512,0\n",
	"5,src1,1,Re ad,0,512,0\n",
	"- 5,src1,1,Read,0,512,0\n",
	"+,src1,1,Read,0,512,0\n",
	"5,src1,1,Read,0x10,512,0\n",
	"5,src1,1,Read,1e3,512,0\n",
	// Empty fields.
	",src1,1,Read,0,512,0\n",
	"5,,1,Read,0,512,0\n",
	"5,src1,,Read,0,512,0\n",
	"5,src1,1,,0,512,0\n",
	"5,src1,1,Read,,512,0\n",
	"5,src1,1,Read,0,,0\n",
	"5,src1,1,Read,0,512,\n",
	",,,,,\n",
	// 5, 6 and 8 fields.
	"5,src1,1,Read,0\n",
	"5,src1,1,Read,0,512\n",
	"5,src1,1,Read,0,512,0,extra\n",
	"5,src1,1,Read,0,512,\n",
	"5\n", "5,\n", "5,src1\n", "5,src1,1\n", "5,src1,1,Read\n",
	// A filtered-out host or disk on a line with too few fields, and
	// bad fields behind a filter.
	"5,other,1,Read,0\n",
	"5,other\n",
	"5,src1,7,Read\n",
	"x,other,1,Read,0,512,0\n",
	"5,other,x,Read,0,512,0\n",
	"5,src1,7,Frob,0,512,0\n",
	"5,src1,1,Frob,x,x,0\n",
	"5,src1,1,Read,x,0,0\n",
	// Mixed: records, then a failure mid-stream.
	"1,src1,1,Read,0,512,0\n2,src2,1,Read,512,512,0\n3,src1,2,Write,1024,512,0\n4,src1,1,Read,0\n",
	"1,src1,1,Read,0,512,0\r\n 2,src1,1,Read,0,512,0\r\n",
}

// FuzzMSRDecodeMatchesReference holds the one-pass MSR decoder to the
// splitByte-based one it replaced: for any input, under no filter and
// under host and disk filters, both yield the same records, the same
// running DiskSectors and the same error text.
func FuzzMSRDecodeMatchesReference(f *testing.F) {
	for _, s := range msrCambridgeSeeds {
		f.Add(s)
	}
	for _, s := range msrDiffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		for _, opts := range msrDiffOptions {
			checkMSRMatchesReference(t, data, opts)
		}
	})
}
