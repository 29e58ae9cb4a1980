package scrubd_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/scrubd"
)

// buildEngine feeds the deterministic synthetic workload and applies
// it, ready for checkpointing.
func buildEngine(t *testing.T, cfg scrubd.Config, seed int64, devices, per int) (*scrubd.Engine, []int64) {
	t.Helper()
	recs, last := genRecords(seed, devices, per)
	eng := scrubd.NewEngine(cfg)
	if _, err := eng.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}
	return eng, last
}

// snapJSON renders the engine's merged metrics snapshot.
func snapJSON(t *testing.T, eng *scrubd.Engine) string {
	t.Helper()
	snap, err := eng.ObsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	if err := snap.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// decisions renders every device's decision at fixed idle offsets.
func decisions(t *testing.T, eng *scrubd.Engine, last []int64) []byte {
	t.Helper()
	var dec scrubd.Decision
	var out []byte
	for i, lastAt := range last {
		name := []byte(fmt.Sprintf("d%04d", i))
		for _, idle := range []int64{0, 250_000, 800_000} {
			if err := eng.Decide(name, lastAt+idle, &dec); err != nil {
				t.Fatalf("decide %s: %v", name, err)
			}
			out = scrubd.AppendDecision(out, &dec)
		}
	}
	return out
}

// TestCheckpointRoundTrip pins the restore contract: a restored engine
// answers byte-identical decisions, exports a byte-identical metrics
// snapshot, and keeps evolving identically when fed more records.
func TestCheckpointRoundTrip(t *testing.T) {
	cfg := scrubd.Config{Shards: 4, MinGaps: 6, RefitEvery: 8}
	eng, last := buildEngine(t, cfg, 23, 16, 25)

	wantSnap := snapJSON(t, eng)
	var buf bytes.Buffer
	n, err := eng.Checkpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("Checkpoint reported %d bytes, wrote %d", n, buf.Len())
	}

	restored, err := scrubd.Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Devices() != eng.Devices() {
		t.Fatalf("restored %d devices, want %d", restored.Devices(), eng.Devices())
	}
	if got := snapJSON(t, restored); got != wantSnap {
		t.Fatalf("restored metrics snapshot differs:\n%s\nvs\n%s", got, wantSnap)
	}
	// Decisions mutate decide counters identically on both engines, so
	// compare decisions first, snapshots again after.
	if a, b := decisions(t, eng, last), decisions(t, restored, last); !bytes.Equal(a, b) {
		t.Fatal("restored decisions differ")
	}
	if a, b := snapJSON(t, eng), snapJSON(t, restored); a != b {
		t.Fatal("metrics snapshots diverged after identical queries")
	}

	// Continued feeding evolves both identically, including AR refits.
	more, last2 := genRecords(29, 16, 25)
	shift := last[0] + 10_000_000
	for i := range more {
		more[i].AtUs += shift
	}
	for i := range last2 {
		last2[i] += shift
	}
	for _, e := range []*scrubd.Engine{eng, restored} {
		if _, err := e.IngestBatch(more); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := decisions(t, eng, last2), decisions(t, restored, last2); !bytes.Equal(a, b) {
		t.Fatal("decisions diverged after post-restore feeding")
	}
}

// TestCheckpointFileRoundTrip covers the atomic file path.
func TestCheckpointFileRoundTrip(t *testing.T) {
	eng, last := buildEngine(t, scrubd.Config{Shards: 2, MinGaps: 4}, 5, 6, 12)
	path := filepath.Join(t.TempDir(), "scrubd.ckpt")
	if _, err := eng.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := scrubd.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := decisions(t, eng, last), decisions(t, restored, last); !bytes.Equal(a, b) {
		t.Fatal("file-restored decisions differ")
	}
}

// TestCheckpointRejectsDamage pins the framing checks: truncation,
// bit flips and a foreign magic must all fail with a descriptive error
// before any state is trusted.
func TestCheckpointRejectsDamage(t *testing.T) {
	eng, _ := buildEngine(t, scrubd.Config{Shards: 1, MinGaps: 4}, 3, 4, 10)
	var buf bytes.Buffer
	if _, err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 4, 11, len(good) / 2, len(good) - 1} {
			if _, err := scrubd.Restore(bytes.NewReader(good[:cut])); err == nil {
				t.Fatalf("accepted truncation at %d", cut)
			} else if !strings.Contains(err.Error(), "truncated") {
				t.Fatalf("truncation at %d: %v", cut, err)
			}
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[len(bad)/2] ^= 0x40
		if _, err := scrubd.Restore(bytes.NewReader(bad)); err == nil {
			t.Fatal("accepted corruption")
		} else if !strings.Contains(err.Error(), "corrupted") {
			t.Fatalf("corruption: %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		copy(bad, "NOTHING1")
		if _, err := scrubd.Restore(bytes.NewReader(bad)); err == nil {
			t.Fatal("accepted foreign magic")
		} else if !strings.Contains(err.Error(), "magic") {
			t.Fatalf("magic: %v", err)
		}
	})
}

// TestCheckpointFixture pins the on-disk format with two fixtures of
// the same engine. scrubd.ckpt was written before the frame codec moved
// into internal/durable (commit f6d77a3) and still carries the dropped
// Config.QueueCap field: it must restore to the same decisions and the
// same metrics snapshot. scrubd-noqueuecap.ckpt pins today's encoding
// byte for byte (regenerate with go test -run TestCheckpointFixture
// -update). Every strict prefix of either file is rejected.
func TestCheckpointFixture(t *testing.T) {
	const legacy, current = "testdata/scrubd.ckpt", "testdata/scrubd-noqueuecap.ckpt"
	eng, last := buildEngine(t, scrubd.Config{Shards: 2, MinGaps: 4}, 5, 6, 12)
	var buf bytes.Buffer
	if _, err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(current, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(current)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("checkpoint encodes to %d bytes that differ from the %d-byte fixture", buf.Len(), len(want))
	}
	wantSnap := snapJSON(t, eng)
	wantDec := decisions(t, eng, last)
	for _, fixture := range []string{legacy, current} {
		restored, err := scrubd.RestoreFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		if got := snapJSON(t, restored); got != wantSnap {
			t.Fatalf("%s: restored metrics snapshot differs:\n%s\nvs\n%s", fixture, got, wantSnap)
		}
		if got := decisions(t, restored, last); !bytes.Equal(got, wantDec) {
			t.Fatalf("%s: restored decisions differ", fixture)
		}
		data, err := os.ReadFile(fixture)
		if err != nil {
			t.Fatal(err)
		}
		for n := range data {
			if _, err := scrubd.Restore(bytes.NewReader(data[:n])); err == nil {
				t.Fatalf("%s: prefix of %d bytes accepted", fixture, n)
			}
		}
	}
}

// forgedLength is a checkpoint header claiming an almost 4 GiB body,
// followed by 16 bytes.
func forgedLength() []byte {
	in := append([]byte("SCRBDSV1"), 0xFF, 0xFF, 0xFF, 0xF0)
	return append(in, make([]byte, 16)...)
}

// TestRestoreForgedLength requires the forged header to fail as
// truncated without Restore allocating the claimed length.
func TestRestoreForgedLength(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := scrubd.Restore(bytes.NewReader(forgedLength()))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("forged length allocated %d bytes", grew)
	}
}

// stallFS holds the first Rename until release is closed.
type stallFS struct {
	durable.FS
	once    sync.Once
	stalled chan struct{}
	release chan struct{}
}

func (fs *stallFS) Rename(oldpath, newpath string) error {
	first := false
	fs.once.Do(func() { first = true })
	if first {
		close(fs.stalled)
		<-fs.release
	}
	return fs.FS.Rename(oldpath, newpath)
}

// TestCheckpointFileOrdersWriters races two CheckpointFile calls: the
// first stalls in its rename while the engine moves on and a second
// starts. Once the first is released, the file must hold the second,
// newer snapshot, never the first renamed over it.
func TestCheckpointFileOrdersWriters(t *testing.T) {
	recs, _ := genRecords(5, 6, 12)
	half := len(recs) / 2
	eng := scrubd.NewEngine(scrubd.Config{Shards: 2, MinGaps: 4})
	if _, err := eng.IngestBatch(recs[:half]); err != nil {
		t.Fatal(err)
	}
	fs := &stallFS{FS: durable.OS, stalled: make(chan struct{}), release: make(chan struct{})}
	scrubd.SetCheckpointFS(eng, fs)
	path := filepath.Join(t.TempDir(), "scrubd.ckpt")

	first := make(chan error, 1)
	go func() {
		_, err := eng.CheckpointFile(path)
		first <- err
	}()
	<-fs.stalled
	if _, err := eng.IngestBatch(recs[half:]); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := eng.Checkpoint(&want); err != nil {
		t.Fatal(err)
	}

	var secondErr error
	secondDone := make(chan struct{})
	go func() {
		_, secondErr = eng.CheckpointFile(path)
		close(secondDone)
	}()
	// An unserialised second writer would finish while the first is
	// stalled; give it the chance before releasing the first.
	select {
	case <-secondDone:
	case <-time.After(200 * time.Millisecond):
	}
	close(fs.release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	<-secondDone
	if secondErr != nil {
		t.Fatal(secondErr)
	}

	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("checkpoint file holds an older snapshot than the last CheckpointFile took")
	}
	restored, err := scrubd.RestoreFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Devices() != eng.Devices() {
		t.Fatalf("restored %d devices, want %d", restored.Devices(), eng.Devices())
	}
}

// FuzzRestore drives Restore with arbitrary bytes: it must never panic
// or over-allocate, and whatever it accepts must checkpoint and restore
// again.
func FuzzRestore(f *testing.F) {
	good, err := os.ReadFile("testdata/scrubd.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	current, err := os.ReadFile("testdata/scrubd-noqueuecap.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range [][]byte{good, good[:len(good)-3], good[:11], forgedLength(), {}, current} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := scrubd.Restore(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := eng.Checkpoint(&buf); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		again, err := scrubd.Restore(&buf)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if again.Devices() != eng.Devices() {
			t.Fatalf("round trip changed device count %d -> %d", eng.Devices(), again.Devices())
		}
	})
}
