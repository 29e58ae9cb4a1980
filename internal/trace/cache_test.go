package trace

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// buildSampleCache writes a cache of the given synthetic trace and
// returns its path and the expected records.
func buildSampleCache(t *testing.T, n int) (string, []Record) {
	t.Helper()
	spec := Synth{Name: "cachetest", MeanIdle: 10 * time.Millisecond, IdleCoV: 2,
		NominalRequests: int64(n), NominalDuration: time.Hour, SeqProb: 0.5, WriteFrac: 0.3}
	tr := spec.Generate(7, time.Hour)
	if len(tr.Records) < 3 {
		t.Fatalf("generator yielded only %d records", len(tr.Records))
	}
	path := filepath.Join(t.TempDir(), "t.cache")
	count, err := BuildCache(path, tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if count != int64(len(tr.Records)) {
		t.Fatalf("BuildCache count = %d, want %d", count, len(tr.Records))
	}
	return path, tr.Records
}

func TestCacheRoundTrip(t *testing.T) {
	// Enough records to span multiple blocks.
	path, want := buildSampleCache(t, 3*cacheBlockLen)
	src, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.Len() != int64(len(want)) {
		t.Fatalf("header count = %d, want %d", src.Len(), len(want))
	}
	got := drain(t, src)
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if src.Name() != "cachetest" {
		t.Fatalf("name = %q", src.Name())
	}
	// Reset streams the identical sequence again.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	again := drain(t, src)
	for i := range again {
		if again[i] != want[i] {
			t.Fatalf("post-Reset record %d differs", i)
		}
	}
}

func TestCachePreservesDiskSectors(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "t.cache")
	if _, err := BuildCache(path, tr.Source()); err != nil {
		t.Fatal(err)
	}
	src, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.DiskSectors() != tr.DiskSectors {
		t.Fatalf("DiskSectors = %d, want %d", src.DiskSectors(), tr.DiskSectors)
	}
}

func TestCacheEmptySource(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.cache")
	count, err := BuildCache(path, NewSliceSource("empty", 128, nil))
	if err != nil || count != 0 {
		t.Fatalf("BuildCache = %d/%v", count, err)
	}
	src, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if got := drain(t, src); len(got) != 0 {
		t.Fatalf("empty cache yielded %d records", len(got))
	}
}

func TestCacheRejectsCorruption(t *testing.T) {
	path, _ := buildSampleCache(t, 2000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipAt := func(name string, off int) {
		t.Run(name, func(t *testing.T) {
			bad := append([]byte(nil), data...)
			bad[off] ^= 0x40
			p := filepath.Join(t.TempDir(), "bad.cache")
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := OpenCache(p)
			if err == nil {
				defer src.Close()
				var rec Record
				for err == nil {
					err = src.Next(&rec)
				}
			}
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("err = %v, want ErrBadFormat", err)
			}
		})
	}

	flipAt("magic", 2)
	flipAt("header-body", len(cacheMagic)+5) // count field: header CRC must trip
	flipAt("block-body", len(data)/2)        // mid-block bit flip: block CRC must trip
	flipAt("block-crc", len(data)-2)         // flipped checksum itself
}

func TestCacheRejectsTruncation(t *testing.T) {
	path, _ := buildSampleCache(t, 2000)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(data) - 1, len(data) - 17, len(data) / 2, len(cacheMagic) + 3} {
		p := filepath.Join(t.TempDir(), "trunc.cache")
		if err := os.WriteFile(p, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenCache(p)
		if err == nil {
			var rec Record
			for err == nil {
				err = src.Next(&rec)
			}
			src.Close()
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("cut at %d: err = %v, want ErrBadFormat", cut, err)
		}
	}
}

func TestCacheRejectsTrailingGarbage(t *testing.T) {
	path, _ := buildSampleCache(t, 100)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "trail.cache")
	if err := os.WriteFile(p, append(data, 0xAA), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenCache(p)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var rec Record
	for err == nil {
		err = src.Next(&rec)
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
}

func TestCacheAtomicBuildLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.cache")
	if _, err := BuildCache(path, sampleTrace().Source()); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "t.cache" {
		t.Fatalf("directory contents = %v, want just t.cache", ents)
	}
	// A failing source must not leave a live cache or temp files behind.
	bad := &errSource{after: 3}
	if _, err := BuildCache(filepath.Join(dir, "bad.cache"), bad); err == nil {
		t.Fatal("BuildCache over failing source succeeded")
	}
	ents, _ = os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("failed build left files: %v", ents)
	}
}

// TestCacheFixture pins the cache format to a file built from
// msr_golden.csv before the frame codec moved into internal/durable
// (commit f6d77a3): a rebuild matches it byte for byte, it decodes to
// the CSV's records, and every strict prefix is rejected.
func TestCacheFixture(t *testing.T) {
	want, err := os.ReadFile("testdata/msr_golden.cache")
	if err != nil {
		t.Fatal(err)
	}
	openCSV := func() *MSRSource {
		src, err := OpenMSR("testdata/msr_golden.csv", MSROptions{Name: "msr_golden", DiskNumber: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { src.Close() })
		return src
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "rebuilt.cache")
	if _, err := BuildCache(path, openCSV()); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("rebuilt cache differs from the fixture (err %v)", err)
	}
	src, err := OpenCache("testdata/msr_golden.cache")
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, csv := drain(t, src), drain(t, openCSV())
	if len(got) != len(csv) {
		t.Fatalf("fixture decodes to %d records, CSV has %d", len(got), len(csv))
	}
	for i := range got {
		if got[i] != csv[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], csv[i])
		}
	}
	for n := range want {
		p := filepath.Join(dir, "prefix.cache")
		if err := os.WriteFile(p, want[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		src, err := OpenCache(p)
		if err == nil {
			var rec Record
			for err == nil {
				err = src.Next(&rec)
			}
			src.Close()
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrBadFormat", n, err)
		}
	}
}

// TestCacheRefillZeroAlloc pins the streaming read: once warm, a full
// pass over a multi-block cache allocates nothing per frame.
func TestCacheRefillZeroAlloc(t *testing.T) {
	path, want := buildSampleCache(t, 3*cacheBlockLen)
	src, err := OpenCache(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	drain(t, src)
	var rec Record
	allocs := testing.AllocsPerRun(3, func() {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for src.Next(&rec) == nil {
			n++
		}
		if n != len(want) {
			t.Fatalf("pass read %d records, want %d", n, len(want))
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per pass over %d records, want 0", allocs, len(want))
	}
}

// errSource fails after a few records.
type errSource struct{ n, after int }

func (e *errSource) Next(rec *Record) error {
	if e.n >= e.after {
		return errors.New("synthetic source failure")
	}
	e.n++
	rec.Arrival = time.Duration(e.n) * time.Millisecond
	rec.LBA, rec.Sectors = int64(e.n*8), 8
	return nil
}
func (e *errSource) Reset() error       { e.n = 0; return nil }
func (e *errSource) DiskSectors() int64 { return 1024 }
func (e *errSource) Name() string       { return "errsource" }
