package durable_test

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"

	"repro/internal/durable"
)

func frame(t *testing.T, magic string, body []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := durable.WriteFrame(&buf, magic, body)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n != int64(len(magic)+len(body)+8) {
		t.Fatalf("WriteFrame reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	big := make([]byte, 200<<10) // several growth steps past the first chunk
	for i := range big {
		big[i] = byte(i * 7)
	}
	for _, magic := range []string{"", "TESTMAG1"} {
		for _, body := range [][]byte{{}, []byte("x"), big} {
			data := frame(t, magic, body)
			got, err := durable.ReadFrame(bytes.NewReader(data), magic, nil, 1<<20)
			if err != nil {
				t.Fatalf("magic %q, %d-byte body: %v", magic, len(body), err)
			}
			if !bytes.Equal(got, body) {
				t.Fatalf("magic %q: body of %d bytes read back as %d", magic, len(body), len(got))
			}
		}
	}
}

func TestFrameRejectsDamage(t *testing.T) {
	const magic = "TESTMAG1"
	data := frame(t, magic, []byte("a frame body of some length"))
	read := func(b []byte) error {
		_, err := durable.ReadFrame(bytes.NewReader(b), magic, nil, 1<<20)
		return err
	}
	for n := 0; n < len(data); n++ {
		if err := read(data[:n]); !errors.Is(err, durable.ErrTruncated) {
			t.Errorf("prefix of %d bytes: err = %v, want ErrTruncated", n, err)
		}
	}
	for off := range data {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0x10
		err := read(bad)
		switch {
		case off < len(magic):
			if !errors.Is(err, durable.ErrMagic) {
				t.Errorf("flip in magic at %d: err = %v", off, err)
			}
		case off >= len(magic)+4:
			if !errors.Is(err, durable.ErrCorrupt) {
				t.Errorf("flip in body or CRC at %d: err = %v", off, err)
			}
		default: // length: the frame no longer lines up
			if err == nil {
				t.Errorf("flip in length at %d accepted", off)
			}
		}
	}
	if _, err := durable.ReadFrame(bytes.NewReader(data), magic, nil, 3); !errors.Is(err, durable.ErrTooLarge) {
		t.Errorf("over-limit frame: err = %v, want ErrTooLarge", err)
	}
}

// TestFrameForgedLengthBoundedAlloc feeds a length of almost 4 GiB
// followed by 16 bytes: the read must fail as truncated having
// allocated in proportion to the input, not to the forged length.
func TestFrameForgedLengthBoundedAlloc(t *testing.T) {
	in := append([]byte("TESTMAG1"), 0xFF, 0xFF, 0xFF, 0xF0)
	in = append(in, make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := durable.ReadFrame(bytes.NewReader(in), "TESTMAG1", nil, 1<<32-1)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, durable.ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("forged length allocated %d bytes", grew)
	}
}

// TestFrameReuseZeroAlloc pins the streaming contract: passing the
// previous body back as buf reads further frames without allocating.
func TestFrameReuseZeroAlloc(t *testing.T) {
	var stream []byte
	for _, n := range []int{4096, 100, 4000} {
		stream = append(stream, frame(t, "", make([]byte, n))...)
	}
	r := bytes.NewReader(stream)
	buf := make([]byte, 0, 8192)
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(stream)
		for range 3 {
			body, err := durable.ReadFrame(r, "", buf, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			buf = body
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per 3 frames, want 0", allocs)
	}
}

// TestWriteFrameZeroAlloc pins the write side of the streaming
// contract: framing into a bufio.Writer allocates nothing, and a plain
// io.Writer receives the same bytes.
func TestWriteFrameZeroAlloc(t *testing.T) {
	body := make([]byte, 1000)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	allocs := testing.AllocsPerRun(20, func() {
		for _, magic := range []string{"", "TESTMAG1"} {
			if _, err := durable.WriteFrame(bw, magic, body); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per 2 frames, want 0", allocs)
	}
	var plain bytes.Buffer
	if _, err := durable.WriteFrame(struct{ io.Writer }{&plain}, "TESTMAG1", body); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), frame(t, "TESTMAG1", body)) {
		t.Fatal("a plain io.Writer received different frame bytes")
	}
}

var errInjected = errors.New("injected fault")

// faultFS is the OS file system with one failing call: the failAt-th
// fault point WriteFile reaches (counting from 1; 0 never fails). The
// fault points are create-temp, each Write, Sync, Close, Rename and
// sync-dir. A failing Write returns ENOSPC, or with short set writes
// half its bytes and returns io.ErrShortWrite.
type faultFS struct {
	failAt int
	short  bool
	calls  int
	failed string
}

func (fs *faultFS) fail(op string) bool {
	fs.calls++
	if fs.calls != fs.failAt {
		return false
	}
	fs.failed = op
	return true
}

func (fs *faultFS) CreateTemp(dir, pattern string) (durable.File, error) {
	if fs.fail("create-temp") {
		return nil, errInjected
	}
	f, err := durable.OS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: f, fs: fs}, nil
}

func (fs *faultFS) Rename(oldpath, newpath string) error {
	if fs.fail("rename") {
		return errInjected
	}
	return durable.OS.Rename(oldpath, newpath)
}

// Remove is cleanup after a failure, not a fault point.
func (fs *faultFS) Remove(name string) error { return durable.OS.Remove(name) }

func (fs *faultFS) SyncDir(dir string) error {
	if fs.fail("sync-dir") {
		return errInjected
	}
	return durable.OS.SyncDir(dir)
}

type faultFile struct {
	durable.File
	fs *faultFS
}

func (f *faultFile) Write(p []byte) (int, error) {
	if !f.fs.fail("write") {
		return f.File.Write(p)
	}
	if f.fs.short {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	return 0, syscall.ENOSPC
}

func (f *faultFile) Sync() error {
	if f.fs.fail("sync") {
		return errInjected
	}
	return f.File.Sync()
}

func (f *faultFile) Close() error {
	err := f.File.Close()
	if f.fs.fail("close") {
		return errInjected
	}
	return err
}

// writeBody writes in several calls, then seeks back to patch its
// first bytes, the way the trace cache fills in its header.
func writeBody(f durable.File) error {
	for _, s := range []string{"HDR?", "first chunk|", "second chunk|", "last chunk"} {
		if _, err := io.WriteString(f, s); err != nil {
			return err
		}
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	_, err := io.WriteString(f, "HDR!")
	return err
}

const newBytes = "HDR!first chunk|second chunk|last chunk"

// TestWriteFileFaults fails each fault point of WriteFile in turn, with
// and without an existing destination. Every failure must reach the
// caller and leave no temp file, and the destination must hold its old
// bytes, or the complete new ones only when the failure came after the
// rename: never a torn file.
func TestWriteFileFaults(t *testing.T) {
	clean := &faultFS{}
	if err := durable.WriteFile(clean, filepath.Join(t.TempDir(), "f"), writeBody); err != nil {
		t.Fatal(err)
	}
	points := clean.calls
	seen := map[string]bool{}
	for _, prev := range []string{"", "previous contents"} {
		for _, short := range []bool{false, true} {
			for at := 1; at <= points; at++ {
				dir := t.TempDir()
				path := filepath.Join(dir, "f")
				if prev != "" {
					if err := os.WriteFile(path, []byte(prev), 0o644); err != nil {
						t.Fatal(err)
					}
				}
				fs := &faultFS{failAt: at, short: short}
				err := durable.WriteFile(fs, path, writeBody)
				seen[fs.failed] = true
				name := fs.failed
				if err == nil {
					t.Fatalf("%s (point %d) failure not returned", name, at)
				}
				ents, rerr := os.ReadDir(dir)
				if rerr != nil {
					t.Fatal(rerr)
				}
				want := prev
				if name == "sync-dir" {
					want = newBytes
				}
				if want == "" {
					if len(ents) != 0 {
						t.Fatalf("%s (point %d): directory holds %v, want nothing", name, at, ents)
					}
					continue
				}
				if len(ents) != 1 {
					t.Fatalf("%s (point %d): directory holds %v, want just the destination", name, at, ents)
				}
				got, rerr := os.ReadFile(path)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if string(got) != want {
					t.Fatalf("%s (point %d): destination holds %q, want %q", name, at, got, want)
				}
			}
		}
	}
	for _, op := range []string{"create-temp", "write", "sync", "close", "rename", "sync-dir"} {
		if !seen[op] {
			t.Errorf("fault point %s never exercised", op)
		}
	}
}

func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := durable.WriteFile(durable.OS, path, writeBody); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != newBytes {
		t.Fatalf("destination holds %q", got)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("directory holds %v, want just the destination", ents)
	}
}
