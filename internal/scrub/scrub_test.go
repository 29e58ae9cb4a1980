package scrub

import (
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/iosched"
	"repro/internal/sim"
)

func TestSequentialCoversDiskExactlyOnce(t *testing.T) {
	const total = 10000
	s, err := NewSequential(total)
	if err != nil {
		t.Fatal(err)
	}
	covered := make([]bool, total)
	for {
		lba, n, ok := s.Next(128)
		if !ok {
			break
		}
		for i := lba; i < lba+n; i++ {
			if covered[i] {
				t.Fatalf("sector %d verified twice", i)
			}
			covered[i] = true
		}
	}
	for i, c := range covered {
		if !c {
			t.Fatalf("sector %d never verified", i)
		}
	}
	if s.Progress() != 1 {
		t.Fatalf("Progress = %v", s.Progress())
	}
	s.Reset()
	if s.Progress() != 0 {
		t.Fatal("Reset did not rewind")
	}
	if _, _, ok := s.Next(0); ok {
		t.Fatal("Next(0) should fail")
	}
}

func TestSequentialOrderIsAscending(t *testing.T) {
	s, _ := NewSequential(1 << 20)
	prev := int64(-1)
	for {
		lba, _, ok := s.Next(999) // odd size exercises remainders
		if !ok {
			break
		}
		if lba <= prev {
			t.Fatalf("lba %d not ascending after %d", lba, prev)
		}
		prev = lba
	}
}

func TestStaggeredCoversDiskExactlyOnce(t *testing.T) {
	cases := []struct {
		total, segment int64
		regions        int
	}{
		{10000, 128, 8},
		{10007, 128, 8},  // non-divisible total
		{10000, 127, 7},  // awkward everything
		{10000, 128, 1},  // degenerates to sequential
		{1000, 128, 512}, // more regions than segments fit
	}
	for _, c := range cases {
		st, err := NewStaggered(c.total, c.segment, c.regions)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]bool, c.total)
		for {
			lba, n, ok := st.Next(c.segment)
			if !ok {
				break
			}
			for i := lba; i < lba+n; i++ {
				if covered[i] {
					t.Fatalf("%+v: sector %d verified twice", c, i)
				}
				covered[i] = true
			}
		}
		for i, cov := range covered {
			if !cov {
				t.Fatalf("%+v: sector %d never verified", c, i)
			}
		}
		if st.Progress() < 0.999 {
			t.Fatalf("%+v: progress %v", c, st.Progress())
		}
	}
}

func TestStaggeredProbesRegionsInOrder(t *testing.T) {
	// 4 regions of 1000 sectors, 100-sector segments: the first four
	// requests must hit the start of each region in LBN order.
	st, _ := NewStaggered(4000, 100, 4)
	want := []int64{0, 1000, 2000, 3000, 100, 1100}
	for i, w := range want {
		lba, n, ok := st.Next(100)
		if !ok || lba != w || n != 100 {
			t.Fatalf("request %d: (%d, %d, %v), want lba %d", i, lba, n, ok, w)
		}
	}
}

func TestStaggeredOneRegionEqualsSequential(t *testing.T) {
	st, _ := NewStaggered(5000, 128, 1)
	seq, _ := NewSequential(5000)
	for {
		l1, n1, ok1 := st.Next(128)
		l2, n2, ok2 := seq.Next(128)
		if ok1 != ok2 || l1 != l2 || n1 != n2 {
			t.Fatalf("diverged: (%d,%d,%v) vs (%d,%d,%v)", l1, n1, ok1, l2, n2, ok2)
		}
		if !ok1 {
			break
		}
	}
}

func TestStaggeredAdaptiveSizeClipped(t *testing.T) {
	st, _ := NewStaggered(4000, 100, 4)
	// Requesting more than a segment stays within the segment.
	_, n, ok := st.Next(1000)
	if !ok || n != 100 {
		t.Fatalf("oversize request returned n=%d", n)
	}
	// Requesting less shrinks the request.
	_, n, ok = st.Next(37)
	if !ok || n != 37 {
		t.Fatalf("undersize request returned n=%d", n)
	}
}

func TestAlgorithmConstructorErrors(t *testing.T) {
	if _, err := NewSequential(0); err == nil {
		t.Fatal("NewSequential(0) accepted")
	}
	if _, err := NewStaggered(0, 128, 4); err == nil {
		t.Fatal("NewStaggered total=0 accepted")
	}
	if _, err := NewStaggered(100, 128, 0); err == nil {
		t.Fatal("NewStaggered regions=0 accepted")
	}
	if _, err := NewStaggered(100, 0, 4); err == nil {
		t.Fatal("NewStaggered segment=0 accepted")
	}
}

func newScrubRig(t *testing.T, mode Mode, class blockdev.Class, delay time.Duration) (*sim.Simulator, *blockdev.Queue, *Scrubber) {
	t.Helper()
	s := sim.New()
	d := disk.MustNew(disk.FujitsuMAX3073RC())
	q := blockdev.NewQueue(s, d, iosched.NewCFQ())
	alg, err := NewSequential(d.Sectors())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := New(s, q, Config{
		Algorithm: alg,
		Mode:      mode,
		Class:     class,
		Delay:     delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, q, sc
}

func TestScrubberFreeRunning(t *testing.T) {
	s, _, sc := newScrubRig(t, KernelMode, blockdev.ClassBE, 0)
	sc.Start()
	if err := s.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	sc.Hold()
	st := sc.Stats()
	if st.Requests < 100 {
		t.Fatalf("only %d requests in 2s", st.Requests)
	}
	// 64KB requests on a 15k SAS drive: expect roughly a full-rotation
	// cadence, i.e. ~10-20 MB/s.
	mbps := st.ThroughputMBps(2 * time.Second)
	if mbps < 8 || mbps > 25 {
		t.Fatalf("sequential scrub throughput %.1f MB/s, want ~14", mbps)
	}
}

func TestScrubberDelayCapsThroughput(t *testing.T) {
	s, _, sc := newScrubRig(t, KernelMode, blockdev.ClassBE, 16*time.Millisecond)
	sc.Start()
	if err := s.RunUntil(4 * time.Second); err != nil {
		t.Fatal(err)
	}
	mbps := sc.Stats().ThroughputMBps(4 * time.Second)
	// The paper: 64KB/16ms = 3.9 MB/s is the hard cap (service adds more).
	if mbps > 3.9 || mbps < 2.0 {
		t.Fatalf("delayed scrub throughput %.2f MB/s, want ~3", mbps)
	}
}

func TestScrubberUserModeSlower(t *testing.T) {
	run := func(mode Mode) float64 {
		s, _, sc := newScrubRig(t, mode, blockdev.ClassBE, 0)
		sc.Start()
		if err := s.RunUntil(2 * time.Second); err != nil {
			t.Fatal(err)
		}
		return sc.Stats().ThroughputMBps(2 * time.Second)
	}
	kernel := run(KernelMode)
	user := run(UserMode)
	if user >= kernel {
		t.Fatalf("user mode (%.1f MB/s) not slower than kernel (%.1f MB/s)", user, kernel)
	}
}

func TestScrubberHoldStopsIssuing(t *testing.T) {
	s, _, sc := newScrubRig(t, KernelMode, blockdev.ClassBE, 0)
	sc.Fire()
	if err := s.RunUntil(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sc.Hold()
	if err := s.Run(); err != nil { // drain the in-flight request
		t.Fatal(err)
	}
	n := sc.Stats().Requests
	if err := s.RunUntil(s.Now() + time.Second); err != nil {
		t.Fatal(err)
	}
	if sc.Stats().Requests != n {
		t.Fatal("requests issued after Hold")
	}
	if sc.Firing() {
		t.Fatal("still firing after Hold")
	}
	// Fire resumes.
	sc.Fire()
	if err := s.RunUntil(s.Now() + 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if sc.Stats().Requests <= n {
		t.Fatal("Fire did not resume")
	}
}

func TestScrubberDoubleFireIsIdempotent(t *testing.T) {
	s, _, sc := newScrubRig(t, KernelMode, blockdev.ClassBE, 0)
	sc.Fire()
	sc.Fire()
	if err := s.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// With queue depth 1 there can never be overlapping scrub requests;
	// the disk panics on overlap, so reaching here is the assertion.
}

func TestScrubberFullPassAndLSE(t *testing.T) {
	s := sim.New()
	m := disk.FujitsuMAX3073RC()
	m.CapacityBytes = 64 << 20 // tiny disk for a fast full pass
	m.Cylinders = 100
	d := disk.MustNew(m)
	d.InjectLSE(1000)
	d.InjectLSE(99999)
	q := blockdev.NewQueue(s, d, iosched.NewNOOP())
	alg, _ := NewSequential(d.Sectors())
	sc, err := New(s, q, Config{Algorithm: alg, Size: FixedSize(2048)})
	if err != nil {
		t.Fatal(err)
	}
	var found []int64
	sc.OnLSE = func(lba int64) { found = append(found, lba) }
	passes := int64(0)
	sc.OnPass = func(p int64) { passes = p }
	sc.Start()
	if err := s.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	sc.Hold()
	if passes < 1 {
		t.Fatalf("no full pass completed; progress %.2f", alg.Progress())
	}
	if sc.Stats().LSEsFound < 2 || len(found) < 2 {
		t.Fatalf("LSEs found = %d (%v), want both", sc.Stats().LSEsFound, found)
	}
}

func TestScrubberConfigValidation(t *testing.T) {
	s := sim.New()
	d := disk.MustNew(disk.FujitsuMAX3073RC())
	q := blockdev.NewQueue(s, d, iosched.NewNOOP())
	if _, err := New(s, q, Config{}); err == nil {
		t.Fatal("missing algorithm accepted")
	}
	alg, _ := NewSequential(d.Sectors())
	sc, err := New(s, q, Config{Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	if sc.cfg.Mode != KernelMode || sc.cfg.Class != blockdev.ClassBE || sc.cfg.UserTurnaround != DefaultUserTurnaround {
		t.Fatalf("defaults not applied: %+v", sc.cfg)
	}
	if sc.cfg.Size(0, 0) != 128 {
		t.Fatal("default size not 64KB")
	}
	if KernelMode.String() != "kernel" || UserMode.String() != "user" || Mode(9).String() == "" {
		t.Fatal("mode strings wrong")
	}
}

func TestStatsThroughputZeroSafe(t *testing.T) {
	var st Stats
	if st.ThroughputMBps(time.Second) != 0 {
		t.Fatal("zero stats should give zero throughput")
	}
}

func TestScrubberAutoRepair(t *testing.T) {
	s := sim.New()
	m := disk.FujitsuMAX3073RC()
	m.CapacityBytes = 64 << 20
	m.Cylinders = 100
	d := disk.MustNew(m)
	for _, lba := range []int64{5_000, 50_000, 100_000} {
		d.InjectLSE(lba)
	}
	q := blockdev.NewQueue(s, d, iosched.NewNOOP())
	alg, _ := NewSequential(d.Sectors())
	sc, err := New(s, q, Config{Algorithm: alg, Size: FixedSize(2048), AutoRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	sc.Start()
	if err := s.RunUntil(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	sc.Hold()
	st := sc.Stats()
	if st.LSEsFound != 3 || st.LSEsRepaired != 3 {
		t.Fatalf("found %d repaired %d, want 3/3", st.LSEsFound, st.LSEsRepaired)
	}
	if d.LSECount() != 0 {
		t.Fatalf("%d errors still latent after auto-repair", d.LSECount())
	}
	// A second pass over the repaired disk finds nothing new.
	found := st.LSEsFound
	sc.Fire()
	if err := s.RunUntil(s.Now() + 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if sc.Stats().LSEsFound != found {
		t.Fatal("repaired errors re-detected")
	}
}

func TestScrubberAutoRepairHoldsForForeground(t *testing.T) {
	// A foreground arrival during the repair writes must still stop the
	// scrub stream afterwards.
	s := sim.New()
	m := disk.FujitsuMAX3073RC()
	m.CapacityBytes = 64 << 20
	m.Cylinders = 100
	d := disk.MustNew(m)
	d.InjectLSE(100)
	q := blockdev.NewQueue(s, d, iosched.NewNOOP())
	alg, _ := NewSequential(d.Sectors())
	sc, err := New(s, q, Config{Algorithm: alg, Size: FixedSize(2048), AutoRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	sc.Fire()
	// Hold immediately after the first verify completes (which carries the
	// LSE): repairs run, but no further verifies.
	s.After(3*time.Millisecond, func() { sc.Hold() })
	if err := s.RunUntil(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if st.LSEsRepaired != 1 {
		t.Fatalf("repaired %d, want 1 (repairs finish even when held)", st.LSEsRepaired)
	}
	if sc.Firing() {
		t.Fatal("still firing after hold")
	}
}

func TestAlgorithmAccessors(t *testing.T) {
	seq, _ := NewSequential(1000)
	if seq.Name() != "sequential" {
		t.Fatal("sequential name wrong")
	}
	st, _ := NewStaggered(1000, 100, 4)
	if st.Name() != "staggered" || st.regions != 4 {
		t.Fatal("staggered accessors wrong")
	}
	st.Next(100)
	st.Reset()
	if st.Progress() != 0 {
		t.Fatal("staggered reset failed")
	}
	s, q, sc := func() (*sim.Simulator, *blockdev.Queue, *Scrubber) {
		s := sim.New()
		d := disk.MustNew(disk.FujitsuMAX3073RC())
		q := blockdev.NewQueue(s, d, iosched.NewNOOP())
		alg, _ := NewSequential(d.Sectors())
		sc, _ := New(s, q, Config{Algorithm: alg})
		return s, q, sc
	}()
	_ = q
	if sc.Algorithm().Name() != "sequential" {
		t.Fatal("scrubber algorithm accessor wrong")
	}
	// SetSize takes effect from the next request.
	sc.SetSize(0) // floors at 1
	sc.Fire()
	if err := s.RunUntil(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sc.Hold()
	if err := s.RunUntil(s.Now() + 50*time.Millisecond); err != nil { // drain in-flight
		t.Fatal(err)
	}
	if sc.Stats().SectorsDone != sc.Stats().Requests {
		t.Fatalf("1-sector requests expected: %d sectors over %d requests",
			sc.Stats().SectorsDone, sc.Stats().Requests)
	}
	sc.SetSize(256)
	before := sc.Stats().Requests
	sc.Fire()
	if err := s.RunUntil(s.Now() + 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sc.Hold()
	if err := s.RunUntil(s.Now() + 50*time.Millisecond); err != nil { // drain in-flight
		t.Fatal(err)
	}
	newReqs := sc.Stats().Requests - before
	newSectors := sc.Stats().SectorsDone - before // before sectors == before requests
	if newReqs == 0 || newSectors != newReqs*256 {
		t.Fatalf("SetSize(256) not applied: %d sectors over %d requests", newSectors, newReqs)
	}
}

func TestHoldIdempotentWithPendingDelay(t *testing.T) {
	s, _, sc := newScrubRig(t, KernelMode, blockdev.ClassBE, 50*time.Millisecond)
	sc.Fire()
	if err := s.RunUntil(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// A delay timer is pending now; Hold must cancel it.
	sc.Hold()
	sc.Hold() // double hold is a no-op
	n := sc.Stats().Requests
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if sc.Stats().Requests > n+1 { // at most the in-flight one completes
		t.Fatal("delayed issue survived Hold")
	}
}
