package raid

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func refArray() Array {
	return Array{
		Disks:       8,
		DiskMTTF:    1_000_000 * time.Hour, // 10^6 h, a spec-sheet MTTF
		RebuildTime: 12 * time.Hour,
		LSERate:     0.001, // one latent error event per ~42 days
		ScrubMLET:   50 * time.Minute,
	}
}

func TestValidate(t *testing.T) {
	good := refArray()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Array){
		func(a *Array) { a.Disks = 1 },
		func(a *Array) { a.DiskMTTF = 0 },
		func(a *Array) { a.RebuildTime = 0 },
		func(a *Array) { a.LSERate = -1 },
		func(a *Array) { a.ScrubMLET = -time.Second },
	}
	for i, mut := range bads {
		a := refArray()
		mut(&a)
		if err := a.Validate(); err == nil {
			t.Fatalf("mutation %d accepted", i)
		}
		if _, err := Analyze(a); err == nil {
			t.Fatalf("Analyze accepted mutation %d", i)
		}
	}
}

func TestLittlesLaw(t *testing.T) {
	a := refArray()
	// 0.001 events/h * 50/60 h = 1/1200.
	want := 0.001 * (50.0 / 60.0)
	if got := a.LatentErrorsPerDisk(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("latent/disk = %v, want %v", got, want)
	}
}

func TestProbabilitiesInRange(t *testing.T) {
	a := refArray()
	rep, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string]float64{
		"lse":    rep.PLossLSE,
		"double": rep.PLossDouble,
	} {
		if p < 0 || p > 1 {
			t.Fatalf("%s probability %v out of range", name, p)
		}
	}
	if rep.LossPerYear <= 0 {
		t.Fatal("no loss rate with nonzero hazards")
	}
	if rep.MTTDLYears <= 0 {
		t.Fatal("non-positive MTTDL")
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestScrubbingImprovesMTTDL(t *testing.T) {
	// The paper's core motivation, quantified: cutting the MLET (e.g. via
	// the tuned Waiting policy scrubbing 6x faster) must increase MTTDL.
	a := refArray()
	slow := a
	slow.ScrubMLET = 6 * time.Hour // a slow fixed-rate scrubber
	fast := a
	fast.ScrubMLET = time.Hour // tuned policy scrubbing 6x faster

	slowRep, err := Analyze(slow)
	if err != nil {
		t.Fatal(err)
	}
	fastRep, err := Analyze(fast)
	if err != nil {
		t.Fatal(err)
	}
	if fastRep.MTTDLYears <= slowRep.MTTDLYears {
		t.Fatalf("faster scrubbing did not help: %v vs %v years", fastRep.MTTDLYears, slowRep.MTTDLYears)
	}
	impr := slowRep.LossPerYear / fastRep.LossPerYear
	// In the small-probability regime the LSE-loss term scales ~linearly
	// with MLET; with the double-failure term mixed in, improvement is
	// between 1x and 6x.
	if impr <= 1 || impr > 6 {
		t.Fatalf("improvement factor = %v, want in (1, 6]", impr)
	}
}

func TestNoLSENoLSETerm(t *testing.T) {
	a := refArray()
	a.LSERate = 0
	rep, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PLossLSE != 0 {
		t.Fatalf("P(lse loss) = %v with zero rate", rep.PLossLSE)
	}
	// Double-failure term remains.
	if rep.PLossDouble <= 0 {
		t.Fatal("double-failure term vanished")
	}
}

func TestDegenerateInfiniteMTTDL(t *testing.T) {
	a := refArray()
	a.LSERate = 0
	a.DiskMTTF = time.Duration(math.MaxInt64) // effectively no failures
	rep, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(rep.MTTDLYears, 1) && rep.MTTDLYears < 1e6 {
		t.Fatalf("MTTDL = %v years, want effectively unbounded", rep.MTTDLYears)
	}
}

// Property: loss rate is monotone in MLET, LSE rate, and group size.
func TestPropertyMonotonicity(t *testing.T) {
	f := func(mletMin uint16, rateMilli uint16, disksRaw uint8) bool {
		a := refArray()
		a.ScrubMLET = time.Duration(mletMin%600+1) * time.Minute
		a.LSERate = float64(rateMilli%100+1) / 1000
		a.Disks = int(disksRaw%14) + 2

		base, err := Analyze(a)
		if err != nil {
			return false
		}
		worse := a
		worse.ScrubMLET = a.ScrubMLET * 2
		worseRep, err := Analyze(worse)
		if err != nil {
			return false
		}
		if worseRep.LossPerYear < base.LossPerYear {
			return false
		}
		bigger := a
		bigger.Disks = a.Disks + 4
		biggerRep, err := Analyze(bigger)
		if err != nil {
			return false
		}
		return biggerRep.LossPerYear >= base.LossPerYear
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestStripeWidthCompat pins the clustered defaults: StripeWidth zero
// and StripeWidth == Disks must reproduce the pre-declustering numbers
// exactly.
func TestStripeWidthCompat(t *testing.T) {
	base := refArray()
	baseRep, err := Analyze(base)
	if err != nil {
		t.Fatal(err)
	}
	full := base
	full.StripeWidth = base.Disks
	fullRep, err := Analyze(full)
	if err != nil {
		t.Fatal(err)
	}
	if baseRep != fullRep {
		t.Fatalf("StripeWidth=Disks changed the analysis:\n%v\nvs\n%v", baseRep, fullRep)
	}
	// Hand-check the clustered loss term against the closed form.
	want := 1 - math.Exp(-float64(base.Disks-1)*base.LatentErrorsPerDisk())
	if got := baseRep.PLossLSE; math.Abs(got-want) > 1e-15 {
		t.Fatalf("PLossLSE = %v, want %v", got, want)
	}
}

func TestDeclusteredLossScalesWithWidth(t *testing.T) {
	a := refArray()
	a.StripeWidth = 4
	rep, err := Analyze(a)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - math.Exp(-float64(a.StripeWidth-1)*a.LatentErrorsPerDisk())
	if math.Abs(rep.PLossLSE-want) > 1e-15 {
		t.Fatalf("declustered PLossLSE = %v, want %v", rep.PLossLSE, want)
	}
	clustered, err := Analyze(refArray())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PLossLSE >= clustered.PLossLSE {
		t.Fatal("narrower stripes should expose fewer latent errors per rebuild")
	}
	bad := a
	bad.StripeWidth = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("stripe width 1 accepted")
	}
	bad.StripeWidth = a.Disks + 1
	if err := bad.Validate(); err == nil {
		t.Fatal("stripe width > Disks accepted")
	}
}
