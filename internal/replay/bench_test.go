package replay

// Benchmark and allocation guards for the replay hot path: arrival event,
// submit, elevator, disk service, completion. With observability disabled
// (the default) the steady-state path must be allocation-free per record;
// BenchmarkReplayHotPath is also the headline number cmd/scrubbench tracks
// against the checked-in BENCH_*.json baseline.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/iosched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// replayFixture builds the benchmark stack: a dense TPC-C-like trace (the
// densest catalog workload) over the paper's SAS drive behind CFQ.
func replayFixture(b testing.TB, dur time.Duration) (*sim.Simulator, *blockdev.Queue, *trace.Trace) {
	syn, ok := trace.ByName("TPCdisk66")
	if !ok {
		b.Fatal("TPCdisk66 missing from catalog")
	}
	tr := syn.Generate(1, dur)
	if len(tr.Records) == 0 {
		b.Fatal("empty benchmark trace")
	}
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	q := blockdev.NewQueue(s, d, iosched.NewCFQ())
	return s, q, tr
}

// BenchmarkReplayHotPath replays the fixture trace repeatedly on one
// stack, the steady-state regime of policy sweeps and tuner runs. The
// records/sec metric is the acceptance number for ISSUE 4's >= 1.5x goal.
func BenchmarkReplayHotPath(b *testing.B) {
	s, q, tr := replayFixture(b, 4*time.Second)
	rp := &Replayer{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rp.RunSource(s, q, tr.Source(), tr.DiskSectors)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != int64(len(tr.Records)) {
			b.Fatalf("completed %d of %d records", res.Requests, len(tr.Records))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(tr.Records))*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// writeMSRFixture writes the replay-busy workload's trace shape to an
// MSR-Cambridge CSV: TPC-C uplifted onto a 300 GB disk with its gaps
// stretched 4x, so the drive keeps up with the open-loop arrivals.
func writeMSRFixture(tb testing.TB, dur time.Duration) (path string, records int) {
	syn, ok := trace.ByName("TPCdisk66")
	if !ok {
		tb.Fatal("TPCdisk66 missing from catalog")
	}
	up, err := trace.Uplift(syn.Source(1, dur/4), trace.UpliftOptions{
		Profile: trace.ProfileHDD300, TimeScale: 4, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := trace.ReadAll(up)
	if err != nil {
		tb.Fatal(err)
	}
	path = filepath.Join(tb.TempDir(), "tpc.csv")
	f, err := os.Create(path)
	if err != nil {
		tb.Fatal(err)
	}
	if err := trace.WriteMSR(f, tr.Source(), "tpcc", 66); err != nil {
		tb.Fatal(err)
	}
	if err := f.Close(); err != nil {
		tb.Fatal(err)
	}
	return path, len(tr.Records)
}

// BenchmarkRunSourceMSR replays an MSR CSV file as the end-to-end replay
// workloads do: open the file, decode it while replaying, close it. Run
// it at -cpu 1,2: decoding overlaps the simulation only with a second
// core, and at one the batch handoff must cost no more than noise.
func BenchmarkRunSourceMSR(b *testing.B) {
	path, n := writeMSRFixture(b, 2*time.Minute)
	s := sim.New()
	q := blockdev.NewQueue(s, disk.MustNew(disk.HitachiUltrastar15K450()), iosched.NewCFQ())
	rp := &Replayer{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := trace.OpenMSR(path, trace.MSROptions{DiskNumber: -1})
		if err != nil {
			b.Fatal(err)
		}
		res, err := rp.RunSource(s, q, src, trace.ProfileHDD300.Sectors)
		src.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != int64(n) {
			b.Fatalf("completed %d of %d records", res.Requests, n)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// TestReplayHotPathSteadyStateAllocs pins the allocation budget of a
// whole warm replay: after the first run has sized the replayer's buffers
// and warmed the event and request pools, replaying thousands of records
// costs a handful of fixed allocations (the Result header), i.e. zero
// allocations per record on the steady-state path with obs disabled.
func TestReplayHotPathSteadyStateAllocs(t *testing.T) {
	s, q, tr := replayFixture(t, 2*time.Second)
	rp := &Replayer{}
	if _, err := rp.RunSource(s, q, tr.Source(), tr.DiskSectors); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := rp.RunSource(s, q, tr.Source(), tr.DiskSectors); err != nil {
			t.Fatal(err)
		}
	})
	const fixedBudget = 4 // Result header and run-constant bookkeeping
	if allocs > fixedBudget {
		t.Fatalf("warm replay of %d records allocates %.0f times, want <= %d fixed (0 per record)",
			len(tr.Records), allocs, fixedBudget)
	}
}

// TestSyntheticSteadyStateAllocs guards the closed-loop workload the same
// way: once the pools are warm, driving the loop allocates only the RNG
// draws' nothing — zero per request.
func TestSyntheticSteadyStateAllocs(t *testing.T) {
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	q := blockdev.NewQueue(s, d, iosched.NewCFQ())
	w := &Synthetic{Seed: 7}
	if err := w.Start(s, q); err != nil {
		t.Fatal(err)
	}
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err) // warm pools and CFQ queues
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := s.RunUntil(s.Now() + 200*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state closed loop allocates %.1f allocs per 200ms slice, want 0", allocs)
	}
	if w.Stats().Requests == 0 {
		t.Fatal("workload issued no requests")
	}
}
