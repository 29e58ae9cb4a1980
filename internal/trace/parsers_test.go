package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// msrGolden is the decode expected from testdata/msr_golden.csv — a
// BOM-prefixed, CRLF-terminated Windows-style SNIA export.
var msrGolden = []Record{
	{Arrival: 0, LBA: 2, Sectors: 8},
	{Arrival: 1 * time.Millisecond, LBA: 16, Sectors: 1, Write: true},
	{Arrival: 2 * time.Millisecond, LBA: 0, Sectors: 8},
	{Arrival: 3 * time.Millisecond, LBA: 1, Sectors: 2},
	{Arrival: 4 * time.Millisecond, LBA: 32, Sectors: 16},
}

func TestMSRGoldenFixture(t *testing.T) {
	src, err := OpenMSR(filepath.Join("testdata", "msr_golden.csv"), MSROptions{DiskNumber: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := drain(t, src)
	if len(got) != len(msrGolden) {
		t.Fatalf("decoded %d records, want %d", len(got), len(msrGolden))
	}
	for i := range got {
		if got[i] != msrGolden[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], msrGolden[i])
		}
	}
	if src.DiskSectors() != 48 {
		t.Fatalf("DiskSectors = %d, want 48", src.DiskSectors())
	}
	// Reset replays identically.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	again := drain(t, src)
	for i := range again {
		if again[i] != msrGolden[i] {
			t.Fatalf("post-Reset record %d = %+v", i, again[i])
		}
	}
}

// TestMSRWindowsHardening pins the BOM/CRLF bugfix in isolation: the
// same logical trace with and without Windows decorations decodes to
// identical records.
func TestMSRWindowsHardening(t *testing.T) {
	plain := "100,h,0,Read,1024,4096,1\n200,h,0,Write,0,512,1\n"
	windows := "\xef\xbb\xbf100,h,0,Read,1024,4096,1\r\n200,h,0,Write,0,512,1\r\n"
	want, err := ReadAll(NewMSRSource(strings.NewReader(plain), MSROptions{DiskNumber: -1}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewMSRSource(strings.NewReader(windows), MSROptions{DiskNumber: -1}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(got.Records), len(want.Records))
	}
	for i := range got.Records {
		if got.Records[i] != want.Records[i] {
			t.Fatalf("record %d: %+v vs %+v", i, got.Records[i], want.Records[i])
		}
	}
	// A BOM mid-file is not magic whitespace: only the first line strips.
	midBOM := "100,h,0,Read,1024,4096,1\n\xef\xbb\xbf200,h,0,Write,0,512,1\n"
	if _, err := ReadAll(NewMSRSource(strings.NewReader(midBOM), MSROptions{DiskNumber: -1})); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("mid-file BOM: err = %v, want ErrBadFormat", err)
	}
}

func TestMSRSourceStreamsEqualReadAll(t *testing.T) {
	want, err := ReadAll(NewMSRSource(strings.NewReader(msrSample), MSROptions{DiskNumber: -1}))
	if err != nil {
		t.Fatal(err)
	}
	src := NewMSRSource(strings.NewReader(msrSample), MSROptions{DiskNumber: -1})
	got := drain(t, src)
	if len(got) != len(want.Records) {
		t.Fatalf("source %d records, ReadAll %d", len(got), len(want.Records))
	}
	for i := range got {
		if got[i] != want.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	// A pipe-like reader (no io.Seeker) must refuse Reset.
	pr, pw := io.Pipe()
	pw.Close()
	if err := NewMSRSource(pr, MSROptions{}).Reset(); err != ErrNotResettable {
		t.Fatalf("pipe Reset = %v, want ErrNotResettable", err)
	}
}

func TestMSRSourceSticksOnError(t *testing.T) {
	src := NewMSRSource(strings.NewReader("100,h,0,Read,0,512,1\nbogus line\n100,h,0,Read,0,512,1\n"), MSROptions{DiskNumber: -1})
	var rec Record
	if err := src.Next(&rec); err != nil {
		t.Fatal(err)
	}
	err := src.Next(&rec)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if err2 := src.Next(&rec); err2 != err {
		t.Fatalf("sticky error not preserved: %v vs %v", err2, err)
	}
}

// celloGolden is the decode expected from testdata/cello_golden.srt for
// device 3 (arrivals are float-second diffs, so compare with tolerance).
var celloGolden = []Record{
	{Arrival: 0, LBA: 2048, Sectors: 16},
	{Arrival: 20 * time.Millisecond, LBA: 4096, Sectors: 8, Write: true},
	{Arrival: 60 * time.Millisecond, LBA: 8, Sectors: 2},
}

func TestCelloGoldenFixture(t *testing.T) {
	src, err := OpenCello(filepath.Join("testdata", "cello_golden.srt"), CelloOptions{Device: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := drain(t, src)
	if len(got) != len(celloGolden) {
		t.Fatalf("decoded %d records, want %d", len(got), len(celloGolden))
	}
	for i, g := range got {
		w := celloGolden[i]
		dt := g.Arrival - w.Arrival
		if dt < -time.Microsecond || dt > time.Microsecond {
			t.Fatalf("record %d arrival %v, want %v +-1us", i, g.Arrival, w.Arrival)
		}
		if g.LBA != w.LBA || g.Sectors != w.Sectors || g.Write != w.Write {
			t.Fatalf("record %d = %+v, want %+v", i, g, w)
		}
	}
	// Device -1 sees the fourth record too.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	all, err := OpenCello(filepath.Join("testdata", "cello_golden.srt"), CelloOptions{Device: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer all.Close()
	if n := len(drain(t, all)); n != 4 {
		t.Fatalf("unfiltered records = %d, want 4", n)
	}
}

func TestCelloRejectsMalformed(t *testing.T) {
	cases := []string{
		"1.0 3 0\n",        // too few fields
		"x 3 0 512 R\n",    // bad timestamp
		"-1.0 3 0 512 R\n", // negative timestamp
		"1.0 y 0 512 R\n",  // bad device
		"1.0 3 -4 512 R\n", // negative offset
		"1.0 3 0 0 R\n",    // zero size
		"1.0 3 0 512 Q\n",  // bad direction
		"1e3 3 0 512 R\n",  // exponent notation is not SRT
	}
	for i, c := range cases {
		src := NewCelloSource(strings.NewReader(c), CelloOptions{Device: -1})
		var rec Record
		if err := src.Next(&rec); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("case %d: err = %v, want ErrBadFormat", i, err)
		}
	}
}

// blktraceGolden mirrors testdata/blktrace_golden.bin, which is a
// WriteBlktrace encoding of these records (regenerate with
// GEN_FIXTURES=1 go test -run TestGenGoldenFixtures ./internal/trace/).
var blktraceGolden = []Record{
	{Arrival: 0, LBA: 2048, Sectors: 8},
	{Arrival: 500 * time.Microsecond, LBA: 2056, Sectors: 8, Write: true},
	{Arrival: time.Millisecond, LBA: 0, Sectors: 32},
	{Arrival: 3 * time.Millisecond, LBA: 9999, Sectors: 1, Write: true},
}

func TestGenGoldenFixtures(t *testing.T) {
	if os.Getenv("GEN_FIXTURES") == "" {
		t.Skip("set GEN_FIXTURES=1 to regenerate testdata")
	}
	var buf bytes.Buffer
	if err := WriteBlktrace(&buf, NewSliceSource("golden", 0, blktraceGolden), 8<<20); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "blktrace_golden.bin"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestBlktraceGoldenFixture(t *testing.T) {
	src, err := OpenBlktrace(filepath.Join("testdata", "blktrace_golden.bin"), BlktraceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got := drain(t, src)
	if len(got) != len(blktraceGolden) {
		t.Fatalf("decoded %d records, want %d", len(got), len(blktraceGolden))
	}
	for i := range got {
		if got[i] != blktraceGolden[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], blktraceGolden[i])
		}
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if again := drain(t, src); len(again) != len(blktraceGolden) {
		t.Fatalf("post-Reset decoded %d records", len(again))
	}
}

// blkEvent builds one little-endian blktrace event for corruption tests.
func blkEvent(timeNs uint64, sector uint64, nbytes, action uint32, pduLen uint16, pdu []byte) []byte {
	var hdr [blkHeaderLen]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:4], blkMagicBase|0x07)
	le.PutUint64(hdr[8:16], timeNs)
	le.PutUint64(hdr[16:24], sector)
	le.PutUint32(hdr[24:28], nbytes)
	le.PutUint32(hdr[28:32], action)
	le.PutUint16(hdr[46:48], pduLen)
	return append(hdr[:], pdu...)
}

func TestBlktraceSkipsAndErrors(t *testing.T) {
	q := uint32(blkTAQueue) | 1<<blkTCShift
	var stream []byte
	stream = append(stream, blkEvent(0, 100, 4096, q, 0, nil)...)
	// Completion event (action id 8): skipped.
	stream = append(stream, blkEvent(10, 100, 4096, 8|1<<blkTCShift, 0, nil)...)
	// Notify message with payload: skipped, payload discarded.
	stream = append(stream, blkEvent(20, 0, 0, blkTCNotify<<blkTCShift, 5, []byte("hello"))...)
	stream = append(stream, blkEvent(30, 200, 512, q|blkTCWrite<<blkTCShift, 0, nil)...)
	src := NewBlktraceSource(bytes.NewReader(stream), BlktraceOptions{})
	got := drain(t, src)
	if len(got) != 2 {
		t.Fatalf("decoded %d records, want 2", len(got))
	}
	if got[1].LBA != 200 || !got[1].Write || got[1].Arrival != 30*time.Nanosecond {
		t.Fatalf("record 1 = %+v", got[1])
	}

	// Truncated mid-header: error, not EOF.
	trunc := stream[:len(stream)-10]
	src = NewBlktraceSource(bytes.NewReader(trunc), BlktraceOptions{})
	var rec Record
	var err error
	for err == nil {
		err = src.Next(&rec)
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("truncated stream err = %v, want ErrBadFormat", err)
	}

	// Garbage magic: rejected up front.
	src = NewBlktraceSource(bytes.NewReader([]byte("this is not a blktrace file, not at all......")), BlktraceOptions{})
	if err := src.Next(&rec); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("garbage err = %v, want ErrBadFormat", err)
	}
}

func TestBlktraceBigEndian(t *testing.T) {
	var hdr [blkHeaderLen]byte
	be := binary.BigEndian
	be.PutUint32(hdr[0:4], blkMagicBase|0x07)
	be.PutUint64(hdr[8:16], 42)
	be.PutUint64(hdr[16:24], 1000)
	be.PutUint32(hdr[24:28], 1024)
	be.PutUint32(hdr[28:32], uint32(blkTAQueue)|1<<blkTCShift)
	src := NewBlktraceSource(bytes.NewReader(hdr[:]), BlktraceOptions{})
	got := drain(t, src)
	if len(got) != 1 || got[0].LBA != 1000 || got[0].Sectors != 2 {
		t.Fatalf("big-endian decode = %+v", got)
	}
}

func TestNativeSourceMatchesRead(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	want, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src := NewNativeSource(bytes.NewReader(buf.Bytes()))
	got := drain(t, src)
	if len(got) != len(want.Records) {
		t.Fatalf("source %d records, Read %d", len(got), len(want.Records))
	}
	for i := range got {
		if got[i] != want.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got[i], want.Records[i])
		}
	}
	if src.Name() != tr.Name || src.DiskSectors() != tr.DiskSectors {
		t.Fatalf("metadata = %q/%d", src.Name(), src.DiskSectors())
	}
	// Same strictness as Read: backwards arrivals rejected.
	bad := "arrival_us,op,lba,sectors\n5,R,0,8\n4,R,0,8\n"
	src = NewNativeSource(strings.NewReader(bad))
	var rec Record
	var e error
	for e == nil {
		e = src.Next(&rec)
	}
	if !errors.Is(e, ErrBadFormat) {
		t.Fatalf("backwards arrival err = %v", e)
	}
}

func TestDetectFormatAndOpen(t *testing.T) {
	dir := t.TempDir()

	native := filepath.Join(dir, "t.csv")
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(native, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cachePath := filepath.Join(dir, "t.cache")
	if _, err := BuildCache(cachePath, sampleTrace().Source()); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		path string
		want Format
		n    int
	}{
		{native, FormatNative, 4},
		{filepath.Join("testdata", "msr_golden.csv"), FormatMSR, 5},
		{filepath.Join("testdata", "cello_golden.srt"), FormatCello, 4},
		{filepath.Join("testdata", "blktrace_golden.bin"), FormatBlktrace, 4},
		{cachePath, FormatCache, 4},
	}
	for _, c := range cases {
		got, err := DetectFormat(c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.path, err)
		}
		if got != c.want {
			t.Fatalf("%s: detected %v, want %v", c.path, got, c.want)
		}
		src, err := Open(c.path, FormatUnknown)
		if err != nil {
			t.Fatalf("Open %s: %v", c.path, err)
		}
		if n := len(drain(t, src)); n != c.n {
			t.Fatalf("%s: %d records, want %d", c.path, n, c.n)
		}
		if err := CloseSource(src); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := ParseFormat("nonsense"); err == nil {
		t.Fatal("ParseFormat accepted nonsense")
	}
	if f, err := ParseFormat("auto"); err != nil || f != FormatUnknown {
		t.Fatalf("ParseFormat(auto) = %v/%v", f, err)
	}
}

func TestWriteMSRRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteMSR(&buf, tr.Source(), "hostA", 3); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(NewMSRSource(bytes.NewReader(buf.Bytes()), MSROptions{Hostname: "hostA", DiskNumber: 3}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip %d records, want %d", len(got.Records), len(tr.Records))
	}
	for i := range got.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestWriteCelloRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := WriteCello(&buf, tr.Source(), 2); err != nil {
		t.Fatal(err)
	}
	src := NewCelloSource(bytes.NewReader(buf.Bytes()), CelloOptions{Name: "rt", Device: 2})
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("round trip %d records, want %d", len(got.Records), len(tr.Records))
	}
	for i := range got.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}
