package trace

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"time"
)

// checkSourceInvariants drains a source and asserts the invariants every
// consumer relies on: monotone non-negative arrivals, valid extents
// contained in the reported address space, no panic on any input.
func checkSourceInvariants(t *testing.T, src Source) {
	var rec Record
	var prev time.Duration
	i := 0
	for {
		err := src.Next(&rec)
		if err != nil {
			return // malformed input must error, never panic
		}
		if rec.Arrival < prev {
			t.Fatalf("record %d: arrival %v went backwards (prev %v)", i, rec.Arrival, prev)
		}
		prev = rec.Arrival
		if rec.LBA < 0 || rec.Sectors <= 0 {
			t.Fatalf("record %d: invalid extent [%d,+%d)", i, rec.LBA, rec.Sectors)
		}
		if end := rec.LBA + rec.Sectors; end < rec.LBA || end > src.DiskSectors() {
			t.Fatalf("record %d: extent end outside disk of %d sectors", i, src.DiskSectors())
		}
		i++
		if i > 1<<16 {
			return // enough; keep fuzz iterations fast
		}
	}
}

// msrCambridgeSeeds cover the MSR decoder's Windows-export hardening
// paths (BOM prefix, CRLF line endings) and its range checks.
var msrCambridgeSeeds = []string{
	msrSample,
	"\xef\xbb\xbf" + strings.ReplaceAll(msrSample, "\n", "\r\n"),
	"\xef\xbb\xbf128166372003061629,src1,1,Read,1024,4096,411\r\n",
	"\xef\xbb\xbf# comment first\r\n128166372003061629,src1,1,Write,0,512,1\r\n",
	"\xef\xbb",     // torn BOM
	"\xef\xbb\xbf", // BOM only
	"100,h,0,Read,1024,4096,1\n\xef\xbb\xbf200,h,0,Write,0,512,1\n", // mid-file BOM
	"128166372003061629,src1,1,Read,1024,4096\r\r\n",
	"9223372036854775807,h,0,Read,0,1,0\r\n0,h,0,Read,0,1,0\r\n",
	"0,h,0,Read,9223372036854775295,512,0\n",
	"1000000,h,0,Read,0,512,1\n999000,h,0,Read,512,512,1\n",
	strings.Repeat("x", 200) + "\n",
}

// FuzzParseMSRCambridge drives the streaming MSR decoder, including the
// Windows-export hardening paths (BOM prefix, CRLF line endings).
func FuzzParseMSRCambridge(f *testing.F) {
	for _, s := range msrCambridgeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		checkSourceInvariants(t, NewMSRSource(strings.NewReader(data), MSROptions{DiskNumber: -1}))
	})
}

// FuzzParseCello drives the streaming Cello/SRT decoder.
func FuzzParseCello(f *testing.F) {
	seeds := []string{
		"834101885.041313 3 1048576 8192 R 0 17\n834101885.061313 3 2097152 4096 W 1\n",
		"# comment\n\n0.5 0 0 512 read\n",
		"0.5\t0\t0\t512\tWrite\n",
		"0.5 0 0 512 R\r\n1.5 0 512 512 W\r\n",
		"\xef\xbb\xbf0.5 0 0 512 R\n",
		"2.0 0 0 512 R\n1.0 0 0 512 R\n", // inversion: clamped
		"999999999999.999 1 0 512 R\n",
		"-0.5 0 0 512 R\n",
		"0.5 0 0 512 Q\n",
		"0..5 0 0 512 R\n",
		"0.5 0 0 512\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		checkSourceInvariants(t, NewCelloSource(strings.NewReader(data), CelloOptions{Device: -1}))
	})
}

// FuzzParseBlktrace drives the binary decoder with arbitrary bytes; the
// seeds cover both endiannesses, payload skipping and truncations.
func FuzzParseBlktrace(f *testing.F) {
	var good bytes.Buffer
	if err := WriteBlktrace(&good, NewSliceSource("seed", 0, []Record{
		{Arrival: 0, LBA: 8, Sectors: 8},
		{Arrival: time.Millisecond, LBA: 16, Sectors: 8, Write: true},
	}), 8<<20); err != nil {
		f.Fatal(err)
	}
	notify := blkEvent(5, 0, 0, blkTCNotify<<blkTCShift, 4, []byte("abcd"))
	seeds := [][]byte{
		good.Bytes(),
		good.Bytes()[:len(good.Bytes())-7], // torn final header
		append(append([]byte{}, notify...), good.Bytes()...),
		blkEvent(1, 1, 512, blkTAQueue|1<<blkTCShift, 100, nil), // pdu_len beyond EOF
		[]byte("not a blktrace stream at all, just text....."),
		{},
		{0x00, 0x74, 0x61, 0x65}, // big-endian magic alone
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSourceInvariants(t, NewBlktraceSource(bytes.NewReader(data), BlktraceOptions{}))
	})
}

// FuzzCacheOpen drives the cache decoder with arbitrary bytes: only a
// CRC-clean, well-formed file may yield records, and a valid prefix of a
// real cache must never be silently accepted.
func FuzzCacheOpen(f *testing.F) {
	// Seed with a real cache built via a temp file.
	path := f.TempDir() + "/seed.cache"
	if _, err := BuildCache(path, sampleFuzzTrace().Source()); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		data,
		data[:len(data)-3],
		data[:len(cacheMagic)+2],
		append(append([]byte{}, data...), 0x00),
		[]byte(cacheMagic),
		[]byte("SCRBTRC2junk"),
		{},
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := NewCacheSource(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkSourceInvariants(t, src)
	})
}

func sampleFuzzTrace() *Trace {
	return &Trace{Name: "fuzzseed", DiskSectors: 4096, Records: []Record{
		{Arrival: 0, LBA: 0, Sectors: 8},
		{Arrival: time.Millisecond, LBA: 2048, Sectors: 16, Write: true},
		{Arrival: 2 * time.Millisecond, LBA: 2064, Sectors: 16},
	}}
}
