package replay

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/iosched"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/trace"
)

type rig struct {
	sim *sim.Simulator
	q   *blockdev.Queue
}

func newRig(t *testing.T) *rig {
	t.Helper()
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	return &rig{sim: s, q: blockdev.NewQueue(s, d, iosched.NewCFQ())}
}

func (r *rig) scrubber(t *testing.T, mode scrub.Mode, class blockdev.Class, delay time.Duration) *scrub.Scrubber {
	t.Helper()
	alg, err := scrub.NewSequential(r.q.Disk().Sectors())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scrub.New(r.sim, r.q, scrub.Config{
		Algorithm: alg, Mode: mode, Class: class, Delay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func TestSyntheticSequentialAloneThroughput(t *testing.T) {
	r := newRig(t)
	w := &Synthetic{BypassCache: true, Seed: 1}
	if err := w.Start(r.sim, r.q); err != nil {
		t.Fatal(err)
	}
	const dur = 20 * time.Second
	if err := r.sim.RunUntil(dur); err != nil {
		t.Fatal(err)
	}
	mbps := w.Stats().ThroughputMBps(dur)
	// The paper's Fig. 6a "None" bar: ~12 MB/s.
	if mbps < 9 || mbps > 16 {
		t.Fatalf("sequential workload alone = %.1f MB/s, want ~12", mbps)
	}
}

func TestSyntheticRandomAloneThroughput(t *testing.T) {
	r := newRig(t)
	w := &Synthetic{Random: true, BypassCache: true, Seed: 2}
	if err := w.Start(r.sim, r.q); err != nil {
		t.Fatal(err)
	}
	const dur = 20 * time.Second
	if err := r.sim.RunUntil(dur); err != nil {
		t.Fatal(err)
	}
	mbps := w.Stats().ThroughputMBps(dur)
	// Random positions add seeks: lower than sequential but same order.
	if mbps < 5 || mbps > 14 {
		t.Fatalf("random workload alone = %.1f MB/s", mbps)
	}
}

func TestCFQIdleScrubberLimitsImpact(t *testing.T) {
	// Fig. 6a shape: an Idle-class back-to-back scrubber must achieve
	// substantial throughput while the foreground loses only a modest
	// fraction; a Default-class back-to-back scrubber must hurt the
	// foreground much more.
	run := func(class blockdev.Class, withScrub bool) (fg, sc float64) {
		r := newRig(t)
		w := &Synthetic{BypassCache: true, Seed: 3}
		if err := w.Start(r.sim, r.q); err != nil {
			t.Fatal(err)
		}
		var scr *scrub.Scrubber
		if withScrub {
			scr = r.scrubber(t, scrub.KernelMode, class, 0)
			scr.Start()
		}
		const dur = 30 * time.Second
		if err := r.sim.RunUntil(dur); err != nil {
			t.Fatal(err)
		}
		fg = w.Stats().ThroughputMBps(dur)
		if scr != nil {
			sc = scr.Stats().ThroughputMBps(dur)
		}
		return fg, sc
	}
	alone, _ := run(blockdev.ClassBE, false)
	fgIdle, scIdle := run(blockdev.ClassIdle, true)
	fgDef, scDef := run(blockdev.ClassBE, true)

	if scIdle < 0.5 {
		t.Fatalf("idle-class scrubber got only %.2f MB/s", scIdle)
	}
	// Foreground under Idle scrubbing within 25% of alone.
	if fgIdle < alone*0.75 {
		t.Fatalf("fg under Idle scrub = %.1f vs alone %.1f", fgIdle, alone)
	}
	// Default-priority back-to-back scrubbing starves the foreground
	// (the paper's Fig. 3/6 "0ms" bars).
	if fgDef > fgIdle*0.8 {
		t.Fatalf("fg under Default scrub = %.1f, not clearly starved vs %.1f", fgDef, fgIdle)
	}
	if scDef < scIdle {
		t.Fatalf("Default scrub %.1f below Idle scrub %.1f", scDef, scIdle)
	}
}

func TestDelayedScrubberRestoresForeground(t *testing.T) {
	// Fig. 6 shape: >= 16ms delays make fg throughput comparable to the
	// no-scrubber case while capping scrub throughput under 64KB/16ms.
	run := func(delay time.Duration, withScrub bool) (fg, sc float64) {
		r := newRig(t)
		w := &Synthetic{BypassCache: true, Seed: 4}
		if err := w.Start(r.sim, r.q); err != nil {
			t.Fatal(err)
		}
		var scr *scrub.Scrubber
		if withScrub {
			scr = r.scrubber(t, scrub.KernelMode, blockdev.ClassBE, delay)
			scr.Start()
		}
		const dur = 30 * time.Second
		if err := r.sim.RunUntil(dur); err != nil {
			t.Fatal(err)
		}
		fg = w.Stats().ThroughputMBps(dur)
		if scr != nil {
			sc = scr.Stats().ThroughputMBps(dur)
		}
		return fg, sc
	}
	alone, _ := run(0, false)
	fg16, sc16 := run(16*time.Millisecond, true)
	if fg16 < alone*0.8 {
		t.Fatalf("fg with 16ms-delayed scrub = %.1f vs alone %.1f", fg16, alone)
	}
	if sc16 > 3.9 {
		t.Fatalf("scrub with 16ms delay = %.1f MB/s, exceeds 64KB/16ms cap", sc16)
	}
}

func TestUserScrubberPriorityBlind(t *testing.T) {
	// Fig. 3: priorities have no effect on the user-level scrubber whose
	// requests are soft barriers.
	run := func(class blockdev.Class) float64 {
		r := newRig(t)
		w := &Synthetic{BypassCache: true, Seed: 5}
		if err := w.Start(r.sim, r.q); err != nil {
			t.Fatal(err)
		}
		scr := r.scrubber(t, scrub.UserMode, class, 0)
		scr.Start()
		const dur = 20 * time.Second
		if err := r.sim.RunUntil(dur); err != nil {
			t.Fatal(err)
		}
		return scr.Stats().ThroughputMBps(dur)
	}
	idle := run(blockdev.ClassIdle)
	def := run(blockdev.ClassBE)
	diff := idle - def
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.15*def {
		t.Fatalf("user scrubber differs across priorities: idle %.1f vs default %.1f", idle, def)
	}
}

func TestReplayerBaseline(t *testing.T) {
	r := newRig(t)
	spec, _ := trace.ByName("HPc3t3d0")
	tr := spec.Generate(1, 2*time.Minute)
	if len(tr.Records) < 100 {
		t.Fatalf("trace too small: %d", len(tr.Records))
	}
	rp := &Replayer{}
	res, err := rp.RunSource(r.sim, r.q, tr.Source(), tr.DiskSectors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != int64(len(tr.Records)) {
		t.Fatalf("requests = %d, want %d", res.Requests, len(tr.Records))
	}
	for i, resp := range res.Responses {
		if resp <= 0 {
			t.Fatalf("request %d has response %v", i, resp)
		}
	}
	if res.Collisions != 0 {
		t.Fatal("collisions without a scrubber")
	}
	if res.MeanResponse() <= 0 || res.MeanResponse() > 1 {
		t.Fatalf("mean response %.4fs implausible", res.MeanResponse())
	}
}

func TestReplayerSlowdownVsBaseline(t *testing.T) {
	spec, _ := trace.ByName("HPc3t3d0")
	tr := spec.Generate(2, 2*time.Minute)

	base := func() *Result {
		r := newRig(t)
		res, err := (&Replayer{}).RunSource(r.sim, r.q, tr.Source(), tr.DiskSectors)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()

	r := newRig(t)
	scr := r.scrubber(t, scrub.KernelMode, blockdev.ClassIdle, 0)
	scr.Start()
	res, err := (&Replayer{}).RunSource(r.sim, r.q, tr.Source(), tr.DiskSectors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collisions == 0 {
		t.Fatal("no collisions with a back-to-back scrubber")
	}
	if res.MeanSlowdownVs(base) <= 0 {
		t.Fatal("no slowdown vs baseline")
	}
	if res.MaxSlowdownVs(base) < res.MeanSlowdownVs(base) {
		t.Fatal("max slowdown below mean")
	}
	if res.CollisionRate() <= 0 || res.CollisionRate() > 1 {
		t.Fatalf("collision rate %v", res.CollisionRate())
	}
	// The response-time CDF with scrubbing must sit right of the baseline
	// at the median.
	if res.CDF().Quantile(0.5) < base.CDF().Quantile(0.5) {
		t.Fatal("median response improved under scrubbing")
	}
}

func TestReplayerScalesLBA(t *testing.T) {
	r := newRig(t)
	// Trace address space twice the disk: records must be scaled, not
	// rejected.
	recs := []trace.Record{
		{Arrival: 0, LBA: 2 * r.q.Disk().Sectors(), Sectors: 8},
		{Arrival: time.Millisecond, LBA: 0, Sectors: 8},
	}
	sectors := 4 * r.q.Disk().Sectors()
	res, err := (&Replayer{}).RunSource(r.sim, r.q, trace.NewSliceSource("", sectors, recs), sectors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2 {
		t.Fatal("scaled replay lost requests")
	}
}

func TestSyntheticValidation(t *testing.T) {
	r := newRig(t)
	w := &Synthetic{ChunkBytes: 1024, ReqBytes: 4096}
	if err := w.Start(r.sim, r.q); err == nil {
		t.Fatal("chunk < request accepted")
	}
	var ws WorkloadStats
	if ws.ThroughputMBps(time.Second) != 0 || ws.MeanResponse() != 0 {
		t.Fatal("zero stats should give zeros")
	}
}

func TestSyntheticStop(t *testing.T) {
	r := newRig(t)
	w := &Synthetic{Seed: 6}
	if err := w.Start(r.sim, r.q); err != nil {
		t.Fatal(err)
	}
	if err := r.sim.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	w.Stop()
	if err := r.sim.Run(); err != nil {
		t.Fatal(err)
	}
	n := w.Stats().Requests
	if n == 0 {
		t.Fatal("no requests before stop")
	}
}
