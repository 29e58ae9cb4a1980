// Package durable is the one write path for the repository's on-disk
// state: fleet checkpoints, scrubd checkpoints and trace caches. It has
// two halves.
//
// The frame codec writes and verifies
//
//	magic | u32 big-endian length | body | u32 CRC-32 (IEEE) of body
//
// so truncation fails a length read and corruption fails the CRC
// compare before any state is trusted. The magic may be empty: the
// trace cache writes its magic once, then bare frames.
//
// WriteFile replaces a file atomically and durably: temp file in the
// destination directory, write, Sync, Close, Rename, then Sync of the
// directory so the rename itself survives a crash. The file operations
// sit behind FS so tests can inject a fault at each step; production
// code passes OS.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
)

// Frame decode failures. ReadFrame wraps them with detail; match them
// with errors.Is.
var (
	ErrTruncated = errors.New("truncated")
	ErrCorrupt   = errors.New("corrupted: CRC mismatch")
	ErrMagic     = errors.New("bad magic")
	ErrTooLarge  = errors.New("frame exceeds limit")
)

// WriteFrame writes magic (possibly empty) and body as one frame,
// returning the bytes written.
func WriteFrame(w io.Writer, magic string, body []byte) (int64, error) {
	if uint64(len(body)) > math.MaxUint32 {
		return 0, fmt.Errorf("%w: %d-byte body", ErrTooLarge, len(body))
	}
	n, err := io.WriteString(w, magic)
	total := int64(n)
	if err == nil {
		n, err = writeUint32(w, uint32(len(body)))
		total += int64(n)
	}
	if err == nil {
		n, err = w.Write(body)
		total += int64(n)
	}
	if err == nil {
		n, err = writeUint32(w, crc32.ChecksumIEEE(body))
		total += int64(n)
	}
	return total, err
}

// writeUint32 writes v big-endian. Through an io.ByteWriter (a
// bufio.Writer, a bytes.Buffer) it goes byte by byte: a local array
// handed to w.Write would escape and cost an allocation per frame.
func writeUint32(w io.Writer, v uint32) (int, error) {
	bw, ok := w.(io.ByteWriter)
	if !ok {
		return w.Write(binary.BigEndian.AppendUint32(nil, v))
	}
	for i := 0; i < 4; i++ {
		if err := bw.WriteByte(byte(v >> (24 - 8*i))); err != nil {
			return i, err
		}
	}
	return 4, nil
}

// growChunk is ReadFrame's first growth step. Each later step at most
// doubles what has arrived, so a forged length costs memory in
// proportion to the bytes actually present, not to the length claimed.
const growChunk = 64 << 10

// ReadFrame reads and verifies one frame, expecting magic first when it
// is non-empty, and returns the body. The body reuses buf's storage
// when it fits, so a caller that passes back the previous body reads a
// stream of frames without allocating. A length above limit fails with
// ErrTooLarge before the body is read; otherwise buf grows only as the
// body's bytes arrive.
func ReadFrame(r io.Reader, magic string, buf []byte, limit uint32) ([]byte, error) {
	if magic != "" {
		got := make([]byte, len(magic))
		if _, err := io.ReadFull(r, got); err != nil {
			return nil, fmt.Errorf("%w magic: %v", ErrTruncated, err)
		}
		if string(got) != magic {
			return nil, fmt.Errorf("%w %q (want %q)", ErrMagic, got, magic)
		}
	}
	// The length, body and CRC all land in buf's storage: a local array
	// would escape through r.Read and cost an allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return nil, fmt.Errorf("%w length: %v", ErrTruncated, err)
	}
	size := binary.BigEndian.Uint32(buf[:4])
	if size > limit {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrTooLarge, size, limit)
	}
	n := int(size) + 4 // body, then its CRC
	got := buf[:0]
	for len(got) < n {
		m := len(got)
		step := min(n-m, max(m, growChunk))
		got = slices.Grow(got, step)
		k, err := io.ReadFull(r, got[m:m+step])
		got = got[:m+k]
		if err != nil {
			return nil, fmt.Errorf("%w body: %v", ErrTruncated, err)
		}
	}
	body := got[:size]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(got[size:]) {
		return nil, ErrCorrupt
	}
	return body, nil
}

// File is the temp file WriteFile hands to its writer. Seek lets a
// writer patch a header in place once the body is known.
type File interface {
	io.Writer
	io.Seeker
	Sync() error
	Close() error
	Name() string
}

// FS is the file-system seam under WriteFile.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	SyncDir(dir string) error
}

// OS is the operating system's file system.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// WriteFile replaces path with what write produces. Until the rename,
// any failure removes the temp file and leaves path as it was; a
// failure to sync the directory after the rename is returned with the
// new bytes in place.
func WriteFile(fsys FS, path string, write func(File) error) error {
	dir := filepath.Dir(path)
	f, err := fsys.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	renamed := false
	defer func() {
		// Best-effort cleanup on a failed exit; the failure itself is
		// what the caller sees. Close may run twice, which is harmless.
		if !renamed {
			f.Close()
			fsys.Remove(f.Name())
		}
	}()
	if err := write(f); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(f.Name(), path); err != nil {
		return err
	}
	renamed = true
	return fsys.SyncDir(dir)
}
