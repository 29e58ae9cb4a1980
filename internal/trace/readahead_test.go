package trace

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

var errAtRecord = errors.New("source failed")

// failAt yields recs and then io.EOF, or errAtRecord in place of record
// at (and on every later call) when at >= 0.
type failAt struct {
	*SliceSource
	at int
}

func (f *failAt) Next(rec *Record) error {
	if f.SliceSource.pos == f.at {
		return errAtRecord
	}
	return f.SliceSource.Next(rec)
}

func metronome(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Arrival: time.Duration(i) * time.Millisecond, LBA: int64(i) * 8, Sectors: 8, Write: i%3 == 0}
	}
	return recs
}

// readUntilErr reads src until Next fails, returning the records and the
// error.
func readUntilErr(src interface{ Next(*Record) error }) ([]Record, error) {
	var out []Record
	var rec Record
	for {
		if err := src.Next(&rec); err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// TestReadAheadMatchesSource pins the ReadAhead contract: the source's
// records in order, then the source's own terminal value at the same
// position, on every later call too; and a Stop/Start cycle on a Reset
// source reads it again from the start.
func TestReadAheadMatchesSource(t *testing.T) {
	ra := NewReadAhead()
	const b = readAheadBatch
	for _, n := range []int{0, 1, b - 1, b, b + 1, readAheadRing * b, readAheadRing*b + 1, 5000} {
		recs := metronome(n)
		for _, at := range []int{-1, 0, b, n - 1, n} {
			t.Run(fmt.Sprintf("n=%d/err=%d", n, at), func(t *testing.T) {
				src := &failAt{NewSliceSource("m", 1<<20, recs), at}
				want, wantErr := readUntilErr(src)
				for pass := 0; pass < 2; pass++ {
					if err := src.Reset(); err != nil {
						t.Fatal(err)
					}
					ra.Start(src)
					got, err := readUntilErr(ra)
					if err != wantErr {
						t.Fatalf("pass %d: error %v after %d records, source gives %v after %d", pass, err, len(got), wantErr, len(want))
					}
					if len(got) != len(want) {
						t.Fatalf("pass %d: %d records, source gives %d", pass, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("pass %d: record %d = %+v, want %+v", pass, i, got[i], want[i])
						}
					}
					var rec Record
					if err := ra.Next(&rec); err != wantErr {
						t.Fatalf("pass %d: Next after the end = %v, want %v again", pass, err, wantErr)
					}
					ra.Stop()
				}
			})
		}
	}
}

// TestReadAheadStopMidStream pins the bound on how far ahead the decoder
// reads, and that Stop hands the source back at once: a stream stopped
// after k records has read at most a ring of batches more, and after a
// Reset a new stream starts from the first record.
func TestReadAheadStopMidStream(t *testing.T) {
	recs := metronome(20 * readAheadBatch)
	src := NewSliceSource("m", 1<<20, recs)
	ra := NewReadAhead()
	for _, k := range []int{0, 1, 3*readAheadBatch + 5} {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		ra.Start(src)
		var rec Record
		for i := 0; i < k; i++ {
			if err := ra.Next(&rec); err != nil {
				t.Fatal(err)
			}
			if rec != recs[i] {
				t.Fatalf("record %d = %+v, want %+v", i, rec, recs[i])
			}
		}
		ra.Stop()
		if limit := k + readAheadRing*readAheadBatch; src.pos > limit {
			t.Fatalf("stopped after %d records, source read to %d (limit %d)", k, src.pos, limit)
		}
	}
	ra.Stop() // idle: no-op
}

// TestReadAheadZeroAlloc pins that a warm Start, read-out and Stop cycle
// allocates nothing: the channels, batches and the goroutine's entry
// point are made once.
func TestReadAheadZeroAlloc(t *testing.T) {
	src := NewSliceSource("m", 1<<20, metronome(3*readAheadBatch+17))
	ra := NewReadAhead()
	var rec Record
	cycle := func() {
		src.Reset()
		ra.Start(src)
		for ra.Next(&rec) == nil {
		}
		ra.Stop()
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("warm read-ahead cycle allocates %.1f times, want 0", allocs)
	}
}
