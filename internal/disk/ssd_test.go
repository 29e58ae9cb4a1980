package disk

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestSSDValidate(t *testing.T) {
	cases := []func(*SSDModel){
		func(m *SSDModel) { m.CapacityBytes = 0 },
		func(m *SSDModel) { m.Channels = 0 },
		func(m *SSDModel) { m.DiesPerChannel = 0 },
		func(m *SSDModel) { m.PageBytes = 100 },
		func(m *SSDModel) { m.ReadPage = 0 },
		func(m *SSDModel) { m.ProgramPage = 0 },
		func(m *SSDModel) { m.BusBytesPerSec = 0 },
		func(m *SSDModel) { m.GCInterval = 0 }, // pause set, interval unset
	}
	for i, mutate := range cases {
		m := DemoSSD()
		mutate(&m)
		if _, err := NewSSD(m); err == nil {
			t.Errorf("case %d: invalid model accepted", i)
		}
	}
	m := DemoSSD()
	m.GCInterval, m.GCPause = 0, 0 // GC disabled is legal
	if _, err := NewSSD(m); err != nil {
		t.Fatalf("GC-disabled model rejected: %v", err)
	}
}

func TestSSDServiceTiming(t *testing.T) {
	m := DemoSSD()
	m.GCInterval, m.GCPause = 0, 0
	s := MustNewSSD(m)

	// One page: one wave of read latency plus overheads plus bus time.
	req := Request{Op: OpRead, LBA: 0, Sectors: m.PageBytes / SectorSize}
	res, err := s.Service(req, 0)
	if err != nil {
		t.Fatal(err)
	}
	bus := time.Duration(float64(m.PageBytes) / m.BusBytesPerSec * float64(time.Second))
	want := m.CommandOverhead + m.ReadPage + bus + m.CompletionOverhead
	if res.Done != want {
		t.Fatalf("1-page read done = %v, want %v", res.Done, want)
	}

	// A full stripe of pages costs the same flash time as one page.
	stripe := int64(m.Channels*m.DiesPerChannel) * m.PageBytes / SectorSize
	res2, err := s.Service(Request{Op: OpRead, LBA: 0, Sectors: stripe}, res.Done)
	if err != nil {
		t.Fatal(err)
	}
	flash2 := (res2.Done - res2.Start) - m.CommandOverhead - m.CompletionOverhead -
		time.Duration(float64(stripe*SectorSize)/m.BusBytesPerSec*float64(time.Second))
	if flash2 != m.ReadPage {
		t.Fatalf("stripe-wide read flash time = %v, want one wave %v", flash2, m.ReadPage)
	}

	// Writes use the program latency.
	res3, err := s.Service(Request{Op: OpWrite, LBA: 0, Sectors: m.PageBytes / SectorSize}, res2.Done)
	if err != nil {
		t.Fatal(err)
	}
	if got := res3.Done - res3.Start; got <= res.Done-res.Start {
		t.Fatalf("write (%v) not slower than read (%v)", got, res.Done-res.Start)
	}

	if _, err := s.Service(Request{Op: OpRead, LBA: s.Sectors(), Sectors: 1}, 0); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	var oor *ErrOutOfRange
	_, err = s.Service(Request{Op: OpRead, LBA: -1, Sectors: 1}, 0)
	if !errors.As(err, &oor) {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestSSDLSELifecycle(t *testing.T) {
	s := MustNewSSD(DemoSSD())
	s.InjectLSE(100)
	s.InjectLSE(50)
	s.InjectLSE(100) // dup ignored
	if s.LSECount() != 2 {
		t.Fatalf("LSECount = %d, want 2", s.LSECount())
	}
	res, err := s.Service(Request{Op: OpVerify, LBA: 0, Sectors: 128}, 0)
	var me *MediumError
	if !errors.As(err, &me) {
		t.Fatalf("err = %v, want MediumError", err)
	}
	if len(res.LSEs) != 2 || res.LSEs[0] != 50 || res.LSEs[1] != 100 {
		t.Fatalf("LSEs = %v, want [50 100]", res.LSEs)
	}
	// A write over the extent remaps both errors.
	if _, err := s.Service(Request{Op: OpWrite, LBA: 0, Sectors: 128}, res.Done); err != nil {
		t.Fatal(err)
	}
	if s.LSECount() != 0 {
		t.Fatalf("LSECount after write = %d, want 0", s.LSECount())
	}
	s.InjectLSE(7)
	s.RepairLSE(7)
	if s.LSECount() != 0 {
		t.Fatal("RepairLSE left the error in place")
	}
}

// TestSSDGCPauseInvariants checks the pause-process properties the ISSUE
// pins: windows never overlap, the schedule is seeded-reproducible, and
// it is identical across independently constructed devices.
func TestSSDGCPauseInvariants(t *testing.T) {
	m := DemoSSD()
	a, b := newGCCursor(m.GCSeed), newGCCursor(m.GCSeed)
	var prevEnd time.Duration
	for i := 0; i < 10000; i++ {
		a.next(&m)
		b.next(&m)
		if a.start != b.start || a.end != b.end {
			t.Fatalf("pause %d: schedules diverge (%v..%v vs %v..%v)", i, a.start, a.end, b.start, b.end)
		}
		if a.start <= prevEnd {
			t.Fatalf("pause %d overlaps previous: start %v <= prev end %v", i, a.start, prevEnd)
		}
		if a.end <= a.start {
			t.Fatalf("pause %d empty: [%v, %v)", i, a.start, a.end)
		}
		prevEnd = a.end
	}
	other := newGCCursor(m.GCSeed + 1)
	other.next(&m)
	first := newGCCursor(m.GCSeed)
	first.next(&m)
	if other.start == first.start && other.end == first.end {
		t.Fatal("different seeds produced an identical first pause")
	}
}

// TestSSDStolenIdleAccounting partitions a long horizon into random
// intervals and checks that the summed StolenIdle equals the directly
// integrated pause time over the same horizon.
func TestSSDStolenIdleAccounting(t *testing.T) {
	m := DemoSSD()
	s := MustNewSSD(m)
	const horizon = 10 * time.Second

	rng := rand.New(rand.NewSource(42))
	var sum time.Duration
	for from := time.Duration(0); from < horizon; {
		to := from + time.Duration(rng.Int63n(int64(50*time.Millisecond))+1)
		if to > horizon {
			to = horizon
		}
		sum += s.StolenIdle(from, to)
		from = to
	}

	c := newGCCursor(m.GCSeed)
	var want time.Duration
	for {
		c.next(&m)
		if c.start >= horizon {
			break
		}
		end := c.end
		if end > horizon {
			end = horizon
		}
		want += end - c.start
	}
	if sum != want {
		t.Fatalf("sum of StolenIdle = %v, direct integral = %v", sum, want)
	}
	if want == 0 {
		t.Fatal("horizon saw no GC pauses; test is vacuous")
	}
}

// TestSSDGCDelaysRequests drives a request stream through a pause and
// checks the collision accounting matches the observed delays.
func TestSSDGCDelaysRequests(t *testing.T) {
	m := DemoSSD()
	s := MustNewSSD(m)
	var now time.Duration
	var measured time.Duration
	base := m.CommandOverhead + m.ReadPage +
		time.Duration(float64(SectorSize)/m.BusBytesPerSec*float64(time.Second)) +
		m.CompletionOverhead
	for i := 0; i < 5000; i++ {
		res, err := s.Service(Request{Op: OpRead, LBA: 0, Sectors: 1}, now)
		if err != nil {
			t.Fatal(err)
		}
		if d := (res.Done - res.Start) - base; d > 0 {
			measured += d
		}
		now = res.Done
	}
	pauses, hits, wait := s.GCStats()
	if hits == 0 {
		t.Fatal("no requests collided with GC over a continuous stream")
	}
	if measured != wait {
		t.Fatalf("observed extra latency %v != accounted GC wait %v", measured, wait)
	}
	if pauses == 0 {
		t.Fatal("no pauses generated")
	}
}

// TestSSDServiceZeroAlloc pins the service fast path at zero allocations
// per request (uninstrumented, no medium errors), like the HDD path.
func TestSSDServiceZeroAlloc(t *testing.T) {
	s := MustNewSSD(DemoSSD())
	var now time.Duration
	if avg := testing.AllocsPerRun(2000, func() {
		res, err := s.Service(Request{Op: OpRead, LBA: 4096, Sectors: 64}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Done
	}); avg != 0 {
		t.Fatalf("Service allocates %.2f per op, want 0", avg)
	}
}

func TestSSDSnapshotRoundTrip(t *testing.T) {
	m := DemoSSD()
	s := MustNewSSD(m)
	s.InjectLSE(9)
	var now time.Duration
	for i := 0; i < 1000; i++ {
		res, _ := s.Service(Request{Op: OpRead, LBA: int64(i) * 8, Sectors: 8}, now)
		now = res.Done
	}
	s.StolenIdle(0, now/2)

	var st SSDState
	s.SaveState(&st)
	r := MustNewSSD(m)
	r.RestoreState(&st)

	// Both devices must behave identically from here on.
	for i := 0; i < 1000; i++ {
		ra, ea := s.Service(Request{Op: OpRead, LBA: int64(i) * 16, Sectors: 8}, now)
		rb, eb := r.Service(Request{Op: OpRead, LBA: int64(i) * 16, Sectors: 8}, now)
		if ra.Done != rb.Done || (ea == nil) != (eb == nil) {
			t.Fatalf("iteration %d: original and restored diverge (%v vs %v)", i, ra.Done, rb.Done)
		}
		now = ra.Done
	}
	if a, b := s.StolenIdle(now, now+time.Second), r.StolenIdle(now, now+time.Second); a != b {
		t.Fatalf("StolenIdle diverges after restore: %v vs %v", a, b)
	}
	sa, ma, _ := s.Stats()
	sb, mb, _ := r.Stats()
	if sa != sb || ma != mb {
		t.Fatalf("stats diverge: (%d,%d) vs (%d,%d)", sa, ma, sb, mb)
	}
}

func TestFindModel(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", HitachiUltrastar15K450().Name},
		{"demo", DemoSmall().Name},
		{"ssd", "NVMe-DC 1TB"},
		{"nvme", "NVMe-DC 1TB"},
		{"demo-ssd", "Demo SSD 2GB"},
		{"fujitsu max", "Fujitsu MAX3073RC 73GB"},
	}
	for _, c := range cases {
		m, err := FindModel(c.in)
		if err != nil {
			t.Fatalf("FindModel(%q): %v", c.in, err)
		}
		if got := m.DeviceName(); got != c.want {
			t.Errorf("FindModel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := FindModel("no-such-device"); err == nil {
		t.Fatal("unknown model resolved")
	}
}

func TestDeviceModelDefaults(t *testing.T) {
	hdd := HitachiUltrastar15K450()
	if hdd.DefaultWaitThreshold() != 100*time.Millisecond {
		t.Fatalf("HDD default threshold = %v, want 100ms (paper)", hdd.DefaultWaitThreshold())
	}
	ssd := NVMeDC1T()
	if ssd.DefaultWaitThreshold() >= hdd.DefaultWaitThreshold() {
		t.Fatal("SSD idle threshold should be shorter than the HDD's")
	}
	dev, err := ssd.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	if dev.ModelName() != ssd.DeviceName() || dev.Sectors() != ssd.DeviceSectors() {
		t.Fatal("DeviceModel and Device disagree on identity")
	}
}
