package replay

// Edge tests for the replayer around the pooled hot path: an empty trace
// must produce a clean zero Result (not hang in the drain loop or index a
// stale buffer), and a shrinking trace must not let a previous, larger
// run's responses bleed into the reused slices.

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/iosched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestReplayEmptyTrace(t *testing.T) {
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	q := blockdev.NewQueue(s, d, iosched.NewNOOP())
	rp := &Replayer{}
	res, err := rp.RunSource(s, q, trace.NewSliceSource("", d.Sectors(), nil), d.Sectors())
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 0 || res.Bytes != 0 || res.Collisions != 0 {
		t.Fatalf("empty trace produced non-zero result: %+v", res)
	}
	if len(res.Responses) != 0 || len(res.Waits) != 0 {
		t.Fatalf("empty trace produced %d responses, %d waits", len(res.Responses), len(res.Waits))
	}
	if res.MeanResponse() != 0 || res.CollisionRate() != 0 {
		t.Fatal("empty-trace derived metrics should be zero")
	}
	if s.Now() != 0 {
		t.Fatalf("empty replay advanced the clock to %v", s.Now())
	}
}

func TestReplayShrinkingTraceReusesBuffersCleanly(t *testing.T) {
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	q := blockdev.NewQueue(s, d, iosched.NewNOOP())
	rp := &Replayer{}

	big := make([]trace.Record, 100)
	for i := range big {
		big[i] = trace.Record{
			Arrival: time.Duration(i) * time.Millisecond,
			LBA:     int64(i) * 1024,
			Sectors: 8,
		}
	}
	resBig, err := rp.RunSource(s, q, trace.NewSliceSource("", d.Sectors(), big), d.Sectors())
	if err != nil {
		t.Fatal(err)
	}
	if resBig.Requests != 100 {
		t.Fatalf("big run completed %d of 100", resBig.Requests)
	}

	small := big[:3]
	resSmall, err := rp.RunSource(s, q, trace.NewSliceSource("", d.Sectors(), small), d.Sectors())
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.Requests != 3 {
		t.Fatalf("small run completed %d of 3", resSmall.Requests)
	}
	if len(resSmall.Responses) != 3 || len(resSmall.Waits) != 3 {
		t.Fatalf("small run returned %d responses, %d waits; want 3 each",
			len(resSmall.Responses), len(resSmall.Waits))
	}
	for i, r := range resSmall.Responses {
		if r <= 0 {
			t.Fatalf("response %d is %v, want > 0 (stale zeroed or leaked value)", i, r)
		}
	}

	// And an empty run immediately after a populated one.
	resEmpty, err := rp.RunSource(s, q, trace.NewSliceSource("", d.Sectors(), big[:0]), d.Sectors())
	if err != nil {
		t.Fatal(err)
	}
	if resEmpty.Requests != 0 || len(resEmpty.Responses) != 0 {
		t.Fatalf("empty rerun leaked prior state: %+v", resEmpty)
	}
}
