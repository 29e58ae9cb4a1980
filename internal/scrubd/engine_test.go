package scrubd_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/scrubd"
)

// genRecords builds a deterministic synthetic feed: devices named
// "d<i>", each with per inter-arrival gaps drawn from a seeded
// per-device AR(1)-shaped process. Records are grouped per device with
// strictly increasing timestamps.
func genRecords(seed int64, devices, per int) ([]scrubd.Record, []int64) {
	var recs []scrubd.Record
	last := make([]int64, devices)
	for i := 0; i < devices; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		name := []byte(fmt.Sprintf("d%04d", i))
		at := int64(1)
		dev := 0.0
		mean := 50_000 + rng.Int63n(100_000)
		for j := 0; j < per; j++ {
			dev = 0.6*dev + rng.NormFloat64()*float64(mean)/5
			g := mean + int64(dev)
			if g < 1_000 {
				g = 1_000
			}
			at += g
			recs = append(recs, scrubd.Record{Dev: name, AtUs: at, Bytes: 4096})
		}
		last[i] = at
	}
	return recs, last
}

// replay feeds recs through a fresh engine in batches of batch records,
// then queries every device at three idle offsets and returns the
// concatenated decision encodings plus the metrics snapshot JSON.
func replay(t *testing.T, cfg scrubd.Config, recs []scrubd.Record, last []int64, batch int) ([]byte, string) {
	t.Helper()
	eng := scrubd.NewEngine(cfg)
	rest := recs
	for len(rest) > 0 {
		n := batch
		if n > len(rest) {
			n = len(rest)
		}
		if _, err := eng.IngestBatch(rest[:n]); err != nil {
			t.Fatalf("ingest: %v", err)
		}
		rest = rest[n:]
	}
	var dec scrubd.Decision
	var out []byte
	for i, lastAt := range last {
		name := []byte(fmt.Sprintf("d%04d", i))
		for _, idle := range []int64{0, 200_000, 700_000} {
			if err := eng.Decide(name, lastAt+idle, &dec); err != nil {
				t.Fatalf("decide %s: %v", name, err)
			}
			out = scrubd.AppendDecision(out, &dec)
		}
	}
	snap, err := eng.ObsSnapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	var sb bytes.Buffer
	if err := snap.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	return out, sb.String()
}

// TestReplayDeterministic is the service-level determinism battery:
// the same feed must produce byte-identical decision sequences and
// metric snapshots when replayed twice, when split into different
// batch sizes, and when sharded 1 vs 8 ways — mirroring the fleet
// engine's 1-vs-8-shard gate.
func TestReplayDeterministic(t *testing.T) {
	recs, last := genRecords(7, 40, 30)
	base := scrubd.Config{Shards: 4, MinGaps: 8, RefitEvery: 8}

	d1, s1 := replay(t, base, recs, last, len(recs))
	d2, s2 := replay(t, base, recs, last, len(recs))
	if !bytes.Equal(d1, d2) || s1 != s2 {
		t.Fatalf("same feed, same batching: decisions or snapshots diverged")
	}

	for _, batch := range []int{1, 7, 256} {
		db, sb := replay(t, base, recs, last, batch)
		if !bytes.Equal(d1, db) {
			t.Fatalf("batch=%d: decisions diverged from single-batch replay", batch)
		}
		if s1 != sb {
			t.Fatalf("batch=%d: metric snapshots diverged from single-batch replay", batch)
		}
	}

	for _, shards := range []int{1, 8} {
		cfg := base
		cfg.Shards = shards
		ds, ss := replay(t, cfg, recs, last, 100)
		if !bytes.Equal(d1, ds) {
			t.Fatalf("shards=%d: decisions diverged from shards=4 replay", shards)
		}
		if s1 != ss {
			t.Fatalf("shards=%d: metric snapshots diverged from shards=4 replay", shards)
		}
	}
}

// TestStaleRecordsIdempotent pins the retry contract: re-ingesting an
// already-applied batch only bumps the stale counter and changes no
// decision state.
func TestStaleRecordsIdempotent(t *testing.T) {
	recs, last := genRecords(3, 5, 20)
	cfg := scrubd.Config{Shards: 2, MinGaps: 4, RefitEvery: 4}
	eng := scrubd.NewEngine(cfg)
	if _, err := eng.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}
	var before scrubd.Decision
	if err := eng.Decide([]byte("d0000"), last[0]+100_000, &before); err != nil {
		t.Fatal(err)
	}

	if _, err := eng.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}
	var after scrubd.Decision
	if err := eng.Decide([]byte("d0000"), last[0]+100_000, &after); err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("replayed batch changed decision state: %+v vs %+v", before, after)
	}

	snap, err := eng.ObsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var gotStale, gotRecords int64
	for _, c := range snap.Counters {
		switch c.Name {
		case "scrubd.ingest.stale_dropped":
			gotStale = c.Value
		case "scrubd.ingest.records":
			gotRecords = c.Value
		}
	}
	if gotStale != int64(len(recs)) {
		t.Fatalf("stale_dropped = %d, want %d", gotStale, len(recs))
	}
	if gotRecords != int64(2*len(recs)) {
		t.Fatalf("ingest.records = %d, want %d", gotRecords, 2*len(recs))
	}
}

// TestMaxDevices pins the device-table cap. A full table rejects only
// records of new devices: records of known devices in the same batch,
// before or after the rejected one, are still applied.
func TestMaxDevices(t *testing.T) {
	eng := scrubd.NewEngine(scrubd.Config{Shards: 1, MaxDevices: 2})
	recs := []scrubd.Record{
		{Dev: []byte("a"), AtUs: 1}, {Dev: []byte("b"), AtUs: 1}, {Dev: []byte("c"), AtUs: 1},
	}
	n, err := eng.IngestBatch(recs)
	if !errors.Is(err, scrubd.ErrTooManyDevices) {
		t.Fatalf("err = %v, want ErrTooManyDevices", err)
	}
	if n != 2 {
		t.Fatalf("accepted %d, want 2", n)
	}
	if eng.Devices() != 2 {
		t.Fatalf("devices = %d, want 2", eng.Devices())
	}

	more := []scrubd.Record{{Dev: []byte("a"), AtUs: 2}, {Dev: []byte("d"), AtUs: 1}, {Dev: []byte("b"), AtUs: 2}}
	if n, err := eng.IngestBatch(more); !errors.Is(err, scrubd.ErrTooManyDevices) || n != 2 {
		t.Fatalf("known devices around a rejected one: applied %d err %v, want 2 and ErrTooManyDevices", n, err)
	}
	var dec scrubd.Decision
	for _, dev := range []string{"a", "b"} {
		if err := eng.Decide([]byte(dev), 0, &dec); err != nil || dec.Gaps != 1 {
			t.Fatalf("%s: gaps %d err %v, want 1 gap", dev, dec.Gaps, err)
		}
	}
}

// TestClosedEngine pins post-Close behavior: feeding fails typed,
// decisions still answer.
func TestClosedEngine(t *testing.T) {
	eng := scrubd.NewEngine(scrubd.Config{Shards: 1})
	if _, err := eng.IngestBatch([]scrubd.Record{{Dev: []byte("sda"), AtUs: 1}}); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if _, err := eng.IngestBatch([]scrubd.Record{{Dev: []byte("sda"), AtUs: 2}}); !errors.Is(err, scrubd.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	var dec scrubd.Decision
	if err := eng.Decide([]byte("sda"), 0, &dec); err != nil {
		t.Fatalf("decide after close: %v", err)
	}
}

// TestDecisionSemantics pins the decision rules against the paper's
// policies: warming holds below the waiting threshold, the threshold
// fires past it with a clamped request size, and an AR-warmed device
// with short predicted gaps holds where a warming one would too.
func TestDecisionSemantics(t *testing.T) {
	cfg := scrubd.Config{
		Shards:        1,
		MinGaps:       4,
		RefitEvery:    4,
		WaitThreshold: 500 * time.Millisecond,
		ARThreshold:   2 * time.Second,
	}
	eng := scrubd.NewEngine(cfg)

	// "warm": 24 gaps alternating 80/120 ms — enough for an AR fit.
	// "cold": a single gap — far below MinGaps.
	var recs []scrubd.Record
	at := int64(1)
	for i := 0; i < 24; i++ {
		g := int64(80_000)
		if i%2 == 1 {
			g = 120_000
		}
		at += g
		recs = append(recs, scrubd.Record{Dev: []byte("warm"), AtUs: at})
	}
	warmLast := at
	recs = append(recs,
		scrubd.Record{Dev: []byte("cold"), AtUs: 1},
		scrubd.Record{Dev: []byte("cold"), AtUs: 100_001},
	)
	if _, err := eng.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}

	var dec scrubd.Decision
	// Cold device, idle below threshold: hold, warming.
	if err := eng.Decide([]byte("cold"), 100_001+100_000, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Scrub || dec.Reason != scrubd.ReasonWarming {
		t.Fatalf("cold short idle: %+v", dec)
	}
	if dec.WaitUs != 400_000 {
		t.Fatalf("cold WaitUs = %d, want 400000", dec.WaitUs)
	}
	// Cold device, idle past threshold: fire on the Waiting rule.
	if err := eng.Decide([]byte("cold"), 100_001+600_000, &dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Scrub || dec.Reason != scrubd.ReasonThreshold {
		t.Fatalf("cold long idle: %+v", dec)
	}
	if dec.ReqBytes < 64<<10 || dec.ReqBytes > 8<<20 {
		t.Fatalf("ReqBytes %d outside clamp", dec.ReqBytes)
	}
	// Warm device at idle 0: the fit predicts ~100ms gaps, far below the
	// 2s AR threshold — hold, with an AR-informed reason and a
	// plausible gap prediction.
	if err := eng.Decide([]byte("warm"), warmLast, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.Scrub {
		t.Fatalf("warm idle 0 fired: %+v", dec)
	}
	if dec.Reason != scrubd.ReasonHold {
		t.Fatalf("warm reason = %v, want hold", dec.Reason)
	}
	if dec.PredGapUs <= 0 || dec.PredGapUs > 1_000_000 {
		t.Fatalf("warm PredGapUs = %d, want ~100ms", dec.PredGapUs)
	}
	// Warm device past the waiting threshold still fires.
	if err := eng.Decide([]byte("warm"), warmLast+600_000, &dec); err != nil {
		t.Fatal(err)
	}
	if !dec.Scrub || dec.Reason != scrubd.ReasonThreshold {
		t.Fatalf("warm long idle: %+v", dec)
	}
	// Unknown device is a typed error.
	if err := eng.Decide([]byte("nope"), 0, &dec); !errors.Is(err, scrubd.ErrUnknownDevice) {
		t.Fatalf("unknown device: %v", err)
	}
}

// TestQueryHotPathZeroAllocs pins the query hot path — parse, decide,
// encode — at zero allocations steady-state, for both the warming and
// the AR-fitted branches.
func TestQueryHotPathZeroAllocs(t *testing.T) {
	recs, last := genRecords(11, 4, 40)
	cfg := scrubd.Config{Shards: 2, MinGaps: 8, RefitEvery: 8}
	eng := scrubd.NewEngine(cfg)
	if _, err := eng.IngestBatch(recs); err != nil {
		t.Fatal(err)
	}

	query := fmt.Sprintf("dev=d0000&now_us=%d", last[0]+100_000)
	var dec scrubd.Decision
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(1000, func() {
		dev, now, err := scrubd.ParseDecideQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.DecideString(dev, now, &dec); err != nil {
			t.Fatal(err)
		}
		buf = scrubd.AppendDecision(buf[:0], &dec)
	})
	if allocs != 0 {
		t.Fatalf("query hot path allocates %.1f/op, want 0", allocs)
	}

	devB := []byte("d0001")
	allocs = testing.AllocsPerRun(1000, func() {
		if err := eng.Decide(devB, last[1]+700_000, &dec); err != nil {
			t.Fatal(err)
		}
		buf = scrubd.AppendDecision(buf[:0], &dec)
	})
	if allocs != 0 {
		t.Fatalf("Decide([]byte) hot path allocates %.1f/op, want 0", allocs)
	}
}

// TestIngestSteadyStateZeroAllocs pins the apply path: feeding more
// records for existing devices allocates nothing once the table and
// queues are warm.
func TestIngestSteadyStateZeroAllocs(t *testing.T) {
	eng := scrubd.NewEngine(scrubd.Config{Shards: 2, MinGaps: 4, RefitEvery: 8})
	devs := [][]byte{[]byte("sda"), []byte("sdb"), []byte("sdc")}
	recs := make([]scrubd.Record, len(devs))
	at := int64(0)
	feed := func() {
		at += 50_000
		for i, d := range devs {
			recs[i] = scrubd.Record{Dev: d, AtUs: at + int64(i), Bytes: 4096}
		}
		if _, err := eng.IngestBatch(recs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		feed() // warm: create devices, size pools, reach steady refits
	}
	if allocs := testing.AllocsPerRun(500, feed); allocs != 0 {
		t.Fatalf("ingest steady state allocates %.1f/op, want 0", allocs)
	}
}

// TestConcurrentFeedDecide exercises the engine under concurrent
// feeders, deciders and snapshotters; run under -race this is the
// data-race battery. Accounting must still be exact.
func TestConcurrentFeedDecide(t *testing.T) {
	const feeders, perFeeder, perDev = 4, 200, 10
	eng := scrubd.NewEngine(scrubd.Config{Shards: 4, MinGaps: 4, RefitEvery: 8})

	var feedWG, wg sync.WaitGroup
	errc := make(chan error, feeders+3)
	for f := 0; f < feeders; f++ {
		feedWG.Add(1)
		go func(f int) {
			defer feedWG.Done()
			batch := make([]scrubd.Record, 0, perDev)
			for d := 0; d < perFeeder; d++ {
				name := []byte(fmt.Sprintf("f%d-d%03d", f, d))
				batch = batch[:0]
				for j := 0; j < perDev; j++ {
					batch = append(batch, scrubd.Record{Dev: name, AtUs: int64(1 + j*10_000), Bytes: 1})
				}
				if _, err := eng.IngestBatch(batch); err != nil {
					errc <- err
					return
				}
			}
		}(f)
	}
	stop := make(chan struct{})
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			var dec scrubd.Decision
			rng := rand.New(rand.NewSource(int64(q)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				name := []byte(fmt.Sprintf("f%d-d%03d", rng.Intn(feeders), rng.Intn(perFeeder)))
				if err := eng.Decide(name, 0, &dec); err != nil && !errors.Is(err, scrubd.ErrUnknownDevice) {
					errc <- err
					return
				}
			}
		}(q)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.ObsSnapshot(); err != nil {
				errc <- err
				return
			}
		}
	}()

	feedWG.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	eng.Close()

	snap, err := eng.ObsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	var records int64
	for _, c := range snap.Counters {
		if c.Name == "scrubd.ingest.records" {
			records = c.Value
		}
	}
	if want := int64(feeders * perFeeder * perDev); records != want {
		t.Fatalf("ingest.records = %d, want %d", records, want)
	}
	if eng.Devices() != feeders*perFeeder {
		t.Fatalf("devices = %d, want %d", eng.Devices(), feeders*perFeeder)
	}
}

// TestInvalidRecordAppliesNothing requires a batch to be validated as a
// whole: an invalid record at index 2 rejects the batch before any of
// it, even the records in front of it, reaches a device.
func TestInvalidRecordAppliesNothing(t *testing.T) {
	for _, shards := range []int{1, 4} {
		eng := scrubd.NewEngine(scrubd.Config{Shards: shards})
		recs := []scrubd.Record{
			{Dev: []byte("sda"), AtUs: 1},
			{Dev: []byte("sdb"), AtUs: 1},
			{Dev: []byte("sdc"), AtUs: 0}, // invalid: non-positive timestamp
			{Dev: []byte("sda"), AtUs: 2},
		}
		n, err := eng.IngestBatch(recs)
		if err == nil || n != 0 {
			t.Fatalf("shards=%d: applied %d err %v, want 0 and an error", shards, n, err)
		}
		if eng.Devices() != 0 {
			t.Fatalf("shards=%d: %d devices created by a rejected batch", shards, eng.Devices())
		}
		var dec scrubd.Decision
		if err := eng.Decide([]byte("sda"), 0, &dec); !errors.Is(err, scrubd.ErrUnknownDevice) {
			t.Fatalf("shards=%d: decide sda = %v, want ErrUnknownDevice", shards, err)
		}
		if got := counter(t, eng, "scrubd.ingest.records"); got != 0 {
			t.Fatalf("shards=%d: ingest.records = %d, want 0", shards, got)
		}
	}
}

// TestIngestVisibleToDecide requires IngestBatch to apply its records
// before it returns: a Decide right after it, with no other call in
// between, sees every gap of the batch.
func TestIngestVisibleToDecide(t *testing.T) {
	recs, last := genRecords(13, 6, 20)
	eng := scrubd.NewEngine(scrubd.Config{Shards: 2, MinGaps: 4, RefitEvery: 8})
	if n, err := eng.IngestBatch(recs); err != nil || n != len(recs) {
		t.Fatalf("ingest: applied %d of %d, err %v", n, len(recs), err)
	}
	var dec scrubd.Decision
	for i, lastAt := range last {
		name := []byte(fmt.Sprintf("d%04d", i))
		if err := eng.Decide(name, lastAt, &dec); err != nil {
			t.Fatal(err)
		}
		if dec.Gaps != 19 || dec.IdleUs != 0 {
			t.Fatalf("%s: gaps %d idle %dus, want 19 gaps at idle 0", name, dec.Gaps, dec.IdleUs)
		}
	}
	if n := eng.ApplyQueued(); n != 0 {
		t.Fatalf("ApplyQueued applied %d records, want 0", n)
	}
}

// counter reads one counter from the engine's merged snapshot.
func counter(t *testing.T, eng *scrubd.Engine, name string) int64 {
	t.Helper()
	snap, err := eng.ObsSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range snap.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}
