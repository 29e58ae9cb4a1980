package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/stats"
)

// idleGaps extracts the positive inter-arrival gaps, the idle-interval
// methodology of the Table II analysis (burst members share timestamps,
// so only inter-burst gaps survive).
func idleGaps(tr *Trace) []time.Duration {
	return stats.IdleGaps(tr.Arrivals())
}

func TestSynthDeterministic(t *testing.T) {
	spec, _ := ByName("HPc3t3d0")
	a := spec.Generate(42, time.Hour)
	b := spec.Generate(42, time.Hour)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c := spec.Generate(43, time.Hour)
	if len(c.Records) == len(a.Records) {
		same := true
		for i := range c.Records {
			if c.Records[i] != a.Records[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestSynthArrivalsMonotone(t *testing.T) {
	for _, spec := range Catalog()[:4] {
		tr := spec.Generate(1, 30*time.Minute)
		prev := time.Duration(-1)
		for i, r := range tr.Records {
			if r.Arrival < prev {
				t.Fatalf("%s: arrival %d went backwards", spec.Name, i)
			}
			prev = r.Arrival
			if r.LBA < 0 || r.Sectors <= 0 || r.LBA+r.Sectors > tr.DiskSectors {
				t.Fatalf("%s: bad extent %+v", spec.Name, r)
			}
		}
	}
}

func TestSynthRequestVolume(t *testing.T) {
	// Generated request rate should be within 3x of the nominal rate
	// (diurnal modulation makes single hours vary widely).
	for _, name := range []string{"MSRusr1", "HPc6t8d0"} {
		spec, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		dur := 24 * time.Hour
		var count int64
		spec.Stream(7, dur, func(Record) bool { count++; return true })
		wantPerHour := float64(spec.NominalRequests) / spec.NominalDuration.Hours()
		gotPerHour := float64(count) / dur.Hours()
		if gotPerHour < wantPerHour/3 || gotPerHour > wantPerHour*3 {
			t.Fatalf("%s: %.0f req/h, want within 3x of %.0f", name, gotPerHour, wantPerHour)
		}
	}
}

func TestSynthIdleCalibration(t *testing.T) {
	// The generated idle-interval distribution must land near the Table II
	// targets: mean within 2.5x, CoV within 3x, and the CoV ordering of
	// low- vs high-variability disks preserved.
	cases := []struct {
		name  string
		hours float64
	}{
		{"MSRusr1", 6},
		{"HPc3t3d0", 12},
		{"HPc6t5d1", 12},
	}
	covs := map[string]float64{}
	for _, c := range cases {
		spec, _ := ByName(c.name)
		tr := spec.Generate(3, time.Duration(c.hours*float64(time.Hour)))
		idles := idleGaps(tr)
		if len(idles) < 100 {
			t.Fatalf("%s: only %d idle intervals", c.name, len(idles))
		}
		xs := make([]float64, len(idles))
		for i, d := range idles {
			xs[i] = d.Seconds()
		}
		mean := stats.Mean(xs)
		cov := stats.CoV(xs)
		covs[c.name] = cov
		wantMean := spec.MeanIdle.Seconds()
		if mean < wantMean/2 || mean > wantMean*2 {
			t.Errorf("%s: mean idle %.4fs, want within 2x of %.4fs", c.name, mean, wantMean)
		}
		if cov < spec.IdleCoV/3 || cov > spec.IdleCoV*3 {
			t.Errorf("%s: CoV %.1f, want within 3x of %.1f", c.name, cov, spec.IdleCoV)
		}
	}
	if covs["HPc6t5d1"] <= covs["HPc3t3d0"] {
		t.Errorf("CoV ordering lost: HPc6t5d1 %.1f <= HPc3t3d0 %.1f",
			covs["HPc6t5d1"], covs["HPc3t3d0"])
	}
}

func TestSynthTPCCNearExponential(t *testing.T) {
	spec, _ := ByName("TPCdisk66")
	tr := spec.Generate(5, 120*time.Second)
	gaps := stats.IdleGaps(tr.Arrivals())
	xs := make([]float64, len(gaps))
	for i, g := range gaps {
		xs[i] = g.Seconds()
	}
	cov := stats.CoV(xs)
	// Table II reports 0.8608; memorylessness is the paper's point.
	if cov < 0.6 || cov > 1.25 {
		t.Fatalf("TPC-C gap CoV = %.3f, want ~0.86", cov)
	}
	mean := stats.Mean(xs)
	if mean < 0.0005 || mean > 0.004 {
		t.Fatalf("TPC-C mean gap = %.5fs, want ~0.0014", mean)
	}
}

func TestSynthHeavyTailAndHazard(t *testing.T) {
	spec, _ := ByName("MSRsrc11")
	tr := spec.Generate(11, 12*time.Hour)
	a := stats.NewIdleAnalysis(idleGaps(tr))
	// Fig. 10's claim: the largest 15% of intervals carry > 80% of idle
	// time (for src11 the skew is strong).
	if share := a.TailShare(0.15); share < 0.8 {
		t.Fatalf("top 15%% intervals carry %.2f of idle time, want > 0.8", share)
	}
	// Fig. 11's claim: expected remaining idle time increases with time
	// already idle.
	if !a.HazardDecreasing([]float64{0.01, 0.1, 1, 10}, 0.1) {
		t.Fatal("synthetic src11 lacks decreasing hazard rates")
	}
	// Fig. 13's claim: after waiting 100ms, well over half the idle time
	// remains usable.
	if u := a.UsableAfterWait(0.1); u < 0.6 {
		t.Fatalf("usable after 100ms = %.2f, want > 0.6", u)
	}
}

func TestSynthAutocorrelation(t *testing.T) {
	spec, _ := ByName("MSRusr1")
	tr := spec.Generate(13, 4*time.Hour)
	idles := idleGaps(tr)
	xs := make([]float64, len(idles))
	for i, d := range idles {
		xs[i] = math.Log(d.Seconds()) // ACF on log-gaps, where AR(1) lives
	}
	if !stats.HasStrongAutocorrelation(xs, 10) {
		t.Fatal("synthetic MSR trace lacks autocorrelation")
	}
}

func TestSynthPeriodicity(t *testing.T) {
	spec, _ := ByName("HPc3t3d0")
	tr := spec.Generate(17, 3*24*time.Hour)
	period, _ := stats.DetectPeriod(hourlyCounts(tr))
	if period != 24 {
		t.Fatalf("detected period %dh, want 24h", period)
	}
}

func TestSynthStreamEarlyStop(t *testing.T) {
	spec, _ := ByName("MSRusr1")
	n := 0
	spec.Stream(1, time.Hour, func(Record) bool {
		n++
		return n < 100
	})
	if n != 100 {
		t.Fatalf("stream did not stop at 100, got %d", n)
	}
}

func TestSynthDefaults(t *testing.T) {
	var s Synth
	d := s.withDefaults()
	if d.MeanIdle <= 0 || d.IdleCoV <= 0 || d.Dist == 0 || d.DiskSectors <= 0 ||
		d.ReqSectors <= 0 || d.NominalDuration <= 0 {
		t.Fatalf("defaults not filled: %+v", d)
	}
	if s.BurstLen() != 16 {
		t.Fatalf("default burst len = %v", s.BurstLen())
	}
	// Generation with an all-default spec should still work.
	tr := s.Generate(1, time.Minute)
	if tr == nil {
		t.Fatal("nil trace")
	}
}

func TestBurstLenFixedPoint(t *testing.T) {
	spec, _ := ByName("MSRsrc11")
	bl := spec.BurstLen()
	// Consistency: bursts * burstLen = requests (IntraGap is zero, so a
	// burst occupies no time).
	bursts := spec.NominalDuration.Seconds() / spec.MeanIdle.Seconds()
	got := bursts * bl
	if math.Abs(got-float64(spec.NominalRequests)) > float64(spec.NominalRequests)/100 {
		t.Fatalf("fixed point off: %f vs %d", got, spec.NominalRequests)
	}
	// With a non-zero intra gap the burst length must grow to compensate.
	spec.IntraGap = 2 * time.Millisecond
	if spec.BurstLen() <= bl {
		t.Fatal("intra gap did not increase burst length")
	}
}

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	if len(cat) != 10 {
		t.Fatalf("catalog has %d entries, want 10 (Table I)", len(cat))
	}
	seen := map[string]bool{}
	for _, s := range cat {
		if s.Name == "" || s.Description == "" || s.NominalRequests <= 0 {
			t.Fatalf("incomplete entry %+v", s)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate %s", s.Name)
		}
		seen[s.Name] = true
	}
	if _, ok := ByName("MSRusr2"); !ok {
		t.Fatal("MSRusr2 missing")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName found a ghost")
	}
}

func TestFig9Catalog(t *testing.T) {
	cat := Fig9Catalog()
	if len(cat) != 63 {
		t.Fatalf("Fig9 catalog has %d disks, want 63", len(cat))
	}
	noPeriod := 0
	daily := 0
	for _, d := range cat {
		switch d.PeriodHours {
		case 1:
			noPeriod++
		case 24:
			daily++
		}
	}
	if noPeriod < 3 {
		t.Fatalf("only %d aperiodic disks", noPeriod)
	}
	if daily < 40 {
		t.Fatalf("only %d daily disks; the paper says 24h dominates", daily)
	}
}

func TestFig9HourlySeriesDetectable(t *testing.T) {
	cat := Fig9Catalog()
	// A daily disk and an aperiodic disk must be classified correctly.
	for _, d := range cat {
		if d.Name != "MSRsrc11" && d.Name != "MSRwdev3" {
			continue
		}
		series := d.HourlySeries(21, 14*24)
		period, _ := stats.DetectPeriod(series)
		if d.PeriodHours == 24 && period != 24 {
			t.Fatalf("%s: detected %dh, want 24", d.Name, period)
		}
		if d.PeriodHours == 1 && period != 1 {
			t.Fatalf("%s: detected %dh, want none", d.Name, period)
		}
	}
}

func TestGammaSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []float64{0.5, 1.35, 4} {
		n := 200000
		var sum, sum2 float64
		for i := 0; i < n; i++ {
			x := gammaSample(rng, k)
			sum += x
			sum2 += x * x
		}
		mean := sum / float64(n)
		variance := sum2/float64(n) - mean*mean
		if math.Abs(mean-k) > 0.05*k {
			t.Fatalf("gamma(%v) mean = %v", k, mean)
		}
		if math.Abs(variance-k) > 0.1*k {
			t.Fatalf("gamma(%v) var = %v", k, variance)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	const want = 36.0
	n := 50000
	total := 0
	for i := 0; i < n; i++ {
		total += geometric(rng, want)
	}
	got := float64(total) / float64(n)
	if math.Abs(got-want) > 1 {
		t.Fatalf("geometric mean = %v, want ~%v", got, want)
	}
	if geometric(rng, 0) != 0 || geometric(rng, -1) != 0 {
		t.Fatal("degenerate geometric wrong")
	}
}

func TestRateModNeutralWithoutPeriod(t *testing.T) {
	s := Synth{PeriodHours: 0, DiurnalAmp: 0.5}
	if s.rateMod(time.Hour) != 1 {
		t.Fatal("aperiodic spec modulated")
	}
	s = Synth{PeriodHours: 24, DiurnalAmp: 0.5}
	hi := s.rateMod(0)              // cos=1: longest gaps
	lo := s.rateMod(12 * time.Hour) // cos=-1: shortest gaps
	mid := s.rateMod(6 * time.Hour) // cos=0
	if !(hi > mid && mid > lo) {
		t.Fatalf("modulation not ordered: %v %v %v", hi, mid, lo)
	}
	if math.Abs(mid-1) > 1e-9 {
		t.Fatalf("mid modulation = %v, want 1", mid)
	}
}

// hourlyCounts buckets request arrivals into per-hour counts (Fig. 8's
// request-activity series).
func hourlyCounts(t *Trace) []float64 {
	if len(t.Records) == 0 {
		return nil
	}
	counts := make([]float64, int(t.Duration()/time.Hour)+1)
	for _, r := range t.Records {
		counts[r.Arrival/time.Hour]++
	}
	return counts
}
