package replay

// Differential battery for the streamed-source path: RunSource decodes a
// non-slice source on a read-ahead goroutine, and must replay exactly as
// the inline path did, where refillOne read the source itself on the
// simulation goroutine — same Result, same error at the same record, same
// number of fired events.

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/trace"
)

// readAheadBatch and readAheadRing mirror the trace package's batch and
// ring sizes, so the cases below land errors and windows on batch
// boundaries and run streams longer than a ring.
const (
	readAheadBatch = 1024
	readAheadRing  = 8
)

var errInjected = errors.New("injected source failure")

// seqSource yields recs and then io.EOF, or errInjected in place of
// record errAt (and on every later call) when errAt >= 0.
type seqSource struct {
	recs  []trace.Record
	errAt int
	pos   int
}

func (s *seqSource) Next(rec *trace.Record) error {
	if s.pos == s.errAt {
		return errInjected
	}
	if s.pos >= len(s.recs) {
		return io.EOF
	}
	*rec = s.recs[s.pos]
	s.pos++
	return nil
}
func (s *seqSource) Reset() error       { s.pos = 0; return nil }
func (s *seqSource) DiskSectors() int64 { return 1 << 30 }
func (s *seqSource) Name() string       { return "seq" }

// genStream draws n records: arrival gaps up to 20 ms, one in eight of
// them zero (same-instant arrivals), random extents and directions.
func genStream(seed int64, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, n)
	var at time.Duration
	for i := range recs {
		if rng.Intn(8) != 0 {
			at += time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
		}
		recs[i] = trace.Record{
			Arrival: at,
			LBA:     rng.Int63n(1 << 30),
			Sectors: 8 << rng.Intn(6),
			Write:   rng.Intn(2) == 0,
		}
	}
	return recs
}

// inlineRunSource replays src the way RunSource did before read-ahead:
// refillOne pulls every record from the source itself.
func inlineRunSource(rp *Replayer, s *sim.Simulator, q *blockdev.Queue, src trace.Source, diskSectors int64) (*Result, error) {
	rp.keep = false
	return rp.run(s, q, src, diskSectors)
}

// diffCase is one replay both paths run.
type diffCase struct {
	recs   []trace.Record
	errAt  int           // injected source error position; < 0: none
	window int           // Replayer.Window
	stopAt time.Duration // a simulator Stop at this time; 0: none
	scrub  bool          // an idle-class scrubber shares the queue
}

func (c diffCase) String() string {
	return fmt.Sprintf("n=%d errAt=%d window=%d stopAt=%v scrub=%v", len(c.recs), c.errAt, c.window, c.stopAt, c.scrub)
}

// replayOutcome is everything a replay exposes to its caller.
type replayOutcome struct {
	res   *Result
	err   error
	fired uint64
	now   time.Duration
}

func (c diffCase) replay(t *testing.T, readAhead bool) replayOutcome {
	t.Helper()
	r := newRig(t)
	if c.scrub {
		r.scrubber(t, scrub.KernelMode, blockdev.ClassIdle, 0).Start()
	}
	if c.stopAt > 0 {
		r.sim.At(c.stopAt, r.sim.Stop)
	}
	rp := &Replayer{Window: c.window}
	src := &seqSource{recs: c.recs, errAt: c.errAt}
	var o replayOutcome
	if readAhead {
		o.res, o.err = rp.RunSource(r.sim, r.q, src, 0)
	} else {
		o.res, o.err = inlineRunSource(rp, r.sim, r.q, src, src.DiskSectors())
	}
	o.fired, o.now = r.sim.Fired(), r.sim.Now()
	return o
}

// checkSame fails unless the read-ahead replay of c matches the inline one.
func checkSame(t *testing.T, c diffCase) {
	t.Helper()
	want, got := c.replay(t, false), c.replay(t, true)
	if !reflect.DeepEqual(got.res, want.res) {
		t.Fatalf("%v: Result %+v, inline %+v", c, got.res, want.res)
	}
	if (got.err == nil) != (want.err == nil) || want.err != nil && !errors.Is(got.err, want.err) {
		t.Fatalf("%v: error %v, inline %v", c, got.err, want.err)
	}
	if got.fired != want.fired || got.now != want.now {
		t.Fatalf("%v: fired %d at %v, inline %d at %v", c, got.fired, got.now, want.fired, want.now)
	}
}

func TestReadAheadMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, readAheadBatch + 1, 3000, readAheadRing*readAheadBatch + 1} {
		recs := genStream(int64(n), n)
		errAts := []int{-1, 0, readAheadBatch, n - 1, rng.Intn(n + 1)}
		for _, window := range []int{0, 1, 7, readAheadBatch - 1, readAheadBatch + 1, 100000} {
			for _, errAt := range errAts {
				if errAt >= n {
					continue
				}
				checkSame(t, diffCase{recs: recs, errAt: errAt, window: window, scrub: n == 3000})
			}
			if n > 0 {
				stopAt := recs[rng.Intn(n)].Arrival + time.Millisecond
				checkSame(t, diffCase{recs: recs, errAt: -1, window: window, stopAt: stopAt})
			}
		}
	}
}

func FuzzReadAheadMatchesInline(f *testing.F) {
	f.Add(int64(1), uint16(3000), uint8(0), int16(-1), uint16(0), false)
	f.Add(int64(2), uint16(2048), uint8(3), int16(readAheadBatch), uint16(0), true)
	f.Add(int64(3), uint16(1200), uint8(1), int16(1199), uint16(0), false)
	f.Add(int64(4), uint16(900), uint8(4), int16(-1), uint16(2000), true)
	f.Add(int64(5), uint16(0), uint8(5), int16(0), uint16(0), false)
	f.Add(int64(6), uint16(9000), uint8(2), int16(readAheadRing*readAheadBatch), uint16(0), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, windowSel uint8, errAt int16, stopMs uint16, scrubbed bool) {
		windows := []int{0, 1, 7, readAheadBatch - 1, readAheadBatch + 1, 100000}
		c := diffCase{
			recs:   genStream(seed, int(n%10000)),
			errAt:  int(errAt),
			window: windows[int(windowSel)%len(windows)],
			stopAt: time.Duration(stopMs) * time.Millisecond,
			scrub:  scrubbed,
		}
		if c.errAt >= len(c.recs) {
			c.errAt = -1
		}
		checkSame(t, c)
	})
}

// guardedSource fails the test when Next runs after RunSource returned.
type guardedSource struct {
	trace.Source
	t        *testing.T
	returned atomic.Bool
}

func (g *guardedSource) Next(rec *trace.Record) error {
	if g.returned.Load() {
		g.t.Error("source read after RunSource returned")
	}
	return g.Source.Next(rec)
}

// waitGoroutines waits for the goroutine count to fall back to at most
// want: the read-ahead goroutine's last act is the signal Stop waits for,
// so it may still be on its way out when RunSource returns. (Goroutines
// of earlier tests may still be on their way out too, hence "at most".)
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after RunSource, %d before", runtime.NumGoroutine(), want)
		}
		runtime.Gosched()
	}
}

// TestRunSourceReleasesSourceOnEveryPath pins the read-ahead goroutine's
// lifetime: on EOF, a source error or a simulator error, RunSource
// returns only after the goroutine has stopped reading the source, and
// the goroutine then exits.
func TestRunSourceReleasesSourceOnEveryPath(t *testing.T) {
	recs := genStream(7, readAheadRing*readAheadBatch+100)
	cases := []struct {
		name    string
		errAt   int
		stopAt  time.Duration
		wantErr error
	}{
		{"eof", -1, 0, nil},
		{"source-error-first", 0, 0, errInjected},
		{"source-error-mid", 700, 0, errInjected},
		{"simulator-error", -1, recs[100].Arrival, sim.ErrStopped},
	}
	rp := &Replayer{Window: 64}
	before := runtime.NumGoroutine()
	for _, c := range cases {
		r := newRig(t)
		if c.stopAt > 0 {
			r.sim.At(c.stopAt, r.sim.Stop)
		}
		src := &guardedSource{Source: &seqSource{recs: recs, errAt: c.errAt}, t: t}
		_, err := rp.RunSource(r.sim, r.q, src, 0)
		src.returned.Store(true)
		if !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
		waitGoroutines(t, before)
	}
}
