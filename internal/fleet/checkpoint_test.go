package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// TestCheckpointResume kills a sweep at randomized slice boundaries,
// resumes from the on-disk checkpoint and requires the resumed campaign
// to finish with a byte-identical final report — the full fault-tolerance
// loop, fleet engine included.
func TestCheckpointResume(t *testing.T) {
	newEngine := func() *Engine {
		e, err := New(Config{
			Shards: 4, Workers: 2, Slice: 13 * time.Second,
			Seed: testSeed, Instrument: true, KeepMembers: true,
		}, testClasses())
		if err != nil {
			t.Fatal(err)
		}
		return e
	}

	// The uninterrupted reference run.
	ref := newEngine()
	refRep, err := ref.Run(context.Background(), testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	refJSON := asJSON(t, refRep)
	refMem := asJSON(t, ref.MemberReports())

	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	for trial := 0; trial < 3; trial++ {
		// Kill at a random mid-sweep boundary (never 0, never the horizon).
		cut := time.Duration(1+rng.Intn(int(testHorizon/time.Second)-1)) * time.Second
		e := newEngine()
		if err := e.Advance(context.Background(), cut); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "ckpt")
		if err := e.CheckpointFile(path); err != nil {
			t.Fatal(err)
		}
		// "Kill": e is abandoned; a fresh process resumes from disk.
		r, err := ResumeFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if r.Now() != cut {
			t.Fatalf("trial %d: resumed at %v, want %v", trial, r.Now(), cut)
		}
		rep, err := r.Run(context.Background(), testHorizon)
		if err != nil {
			t.Fatal(err)
		}
		if got := asJSON(t, rep); got != refJSON {
			t.Errorf("trial %d (cut %v): resumed report differs:\nref:     %s\nresumed: %s", trial, cut, refJSON, got)
		}
		if got := asJSON(t, r.MemberReports()); got != refMem {
			t.Errorf("trial %d (cut %v): resumed member reports differ", trial, cut)
		}
	}
}

// TestCheckpointRejectsCorruption flips and truncates checkpoint bytes
// and requires Resume to reject each damaged artifact with an error —
// never a silently wrong fleet.
func TestCheckpointRejectsCorruption(t *testing.T) {
	e, err := New(Config{Shards: 2, Slice: 10 * time.Second, Seed: 1}, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(context.Background(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	if _, err := Resume(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}

	// Bit flips across the artifact: magic, header, body, CRC.
	for _, off := range []int{0, len(checkpointMagic) + 1, len(good) / 2, len(good) - 2} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x40
		if _, err := Resume(bytes.NewReader(bad)); err == nil {
			t.Errorf("corruption at byte %d accepted", off)
		}
	}
	// Truncations: inside magic, header, body, CRC.
	for _, n := range []int{0, 4, len(checkpointMagic) + 2, len(good) / 2, len(good) - 1} {
		if _, err := Resume(bytes.NewReader(good[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		} else if !strings.Contains(err.Error(), "checkpoint") {
			t.Errorf("truncation to %d bytes: unexpected error %v", n, err)
		}
	}
}

// TestCheckpointFileAtomicity ensures a failed write never replaces an
// existing checkpoint: checkpointing a finished campaign fails, and the
// earlier checkpoint stays in place, resumable, with no temp litter.
func TestCheckpointFileAtomicity(t *testing.T) {
	e, err := New(Config{Slice: 10 * time.Second, Seed: 1}, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Advance(context.Background(), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt")
	if err := e.CheckpointFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckpointFile(path); err == nil {
		t.Fatal("checkpoint of a finished campaign succeeded")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, good) {
		t.Fatalf("failed write disturbed the checkpoint (err %v)", err)
	}
	if _, err := ResumeFile(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("checkpoint dir has %d entries, want just the checkpoint", len(entries))
	}
}

// fixtureChildEnv marks the child process TestCheckpointFixture starts
// to encode the fixture's fleet.
const fixtureChildEnv = "FLEET_CHECKPOINT_FIXTURE_CHILD"

// TestCheckpointFixture pins the on-disk format to a checkpoint written
// before the frame codec moved into internal/durable (commit f6d77a3):
// the same fleet encodes to the same bytes, the file resumes to the
// report of an uninterrupted run, and every strict prefix is rejected.
//
// gob numbers types in the order a process first sends them, and the
// numbers are in the stream, so the encoding depends on what the process
// encoded before. The encode and the byte comparison therefore run in a
// fresh process: the test binary re-run with only this test selected.
func TestCheckpointFixture(t *testing.T) {
	const fixture = "testdata/fleet.ckpt"
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Shards: 2, Slice: 10 * time.Second, Seed: testSeed, Instrument: true, KeepMembers: true}
	if os.Getenv(fixtureChildEnv) != "" {
		e, err := New(cfg, testClasses())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Advance(context.Background(), 30*time.Second); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("checkpoint encodes to %d bytes that differ from the %d-byte fixture", buf.Len(), len(want))
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointFixture$", "-test.v")
	cmd.Env = append(os.Environ(), fixtureChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: TestCheckpointFixture ")) {
		t.Fatalf("encoding the fixture's fleet in a fresh process: %v\n%s", err, out)
	}

	ref, err := New(cfg, testClasses())
	if err != nil {
		t.Fatal(err)
	}
	refRep, err := ref.Run(context.Background(), testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	r, err := ResumeFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background(), testHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := asJSON(t, rep), asJSON(t, refRep); got != want {
		t.Fatalf("resumed fixture report differs:\nref:     %s\nresumed: %s", want, got)
	}
	if asJSON(t, r.MemberReports()) != asJSON(t, ref.MemberReports()) {
		t.Fatal("resumed fixture member reports differ")
	}

	for n := range want {
		if _, err := Resume(bytes.NewReader(want[:n])); err == nil {
			t.Fatalf("prefix of %d bytes accepted", n)
		}
	}
}

// TestCheckpointFixtureAfterOtherGobTypes runs TestCheckpointFixture in
// a process that has already gob-encoded another type, a bare
// core.SystemState. While the fixture was encoded in the test's own
// process, this order made the bytes differ from the fixture.
func TestCheckpointFixtureAfterOtherGobTypes(t *testing.T) {
	if err := gob.NewEncoder(io.Discard).Encode(&core.SystemState{}); err != nil {
		t.Fatal(err)
	}
	TestCheckpointFixture(t)
}

// TestResumeForgedLength feeds a header claiming an almost 4 GiB body
// followed by 16 bytes: Resume must fail as truncated without
// allocating the claimed length.
func TestResumeForgedLength(t *testing.T) {
	in := append([]byte(checkpointMagic), 0xFF, 0xFF, 0xFF, 0xF0)
	in = append(in, make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Resume(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("err = %v, want a truncation error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("forged length allocated %d bytes", grew)
	}
}

// FuzzResume drives Resume with arbitrary bytes, seeded from the
// fixture and its truncations: it must reject damage with an error,
// never panic or over-allocate, and whatever it accepts must checkpoint
// and resume again at the same slice boundary.
func FuzzResume(f *testing.F) {
	good, err := os.ReadFile("testdata/fleet.ckpt")
	if err != nil {
		f.Fatal(err)
	}
	forged := append([]byte(checkpointMagic), 0xFF, 0xFF, 0xFF, 0xF0)
	forged = append(forged, make([]byte, 16)...)
	for _, s := range [][]byte{
		good, good[:len(good)-1], good[:len(good)-4], good[:len(good)/2],
		good[:len(checkpointMagic)+4], good[:len(checkpointMagic)], forged, {},
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := Resume(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		again, err := Resume(&buf)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		if again.Now() != e.Now() || len(again.slots) != len(e.slots) {
			t.Fatalf("round trip moved the fleet: now %v -> %v, %d -> %d members",
				e.Now(), again.Now(), len(e.slots), len(again.slots))
		}
	})
}
