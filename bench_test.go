package repro

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its experiment (in Quick mode so the full suite
// finishes in minutes) and reports the experiment's headline quantity as
// a custom metric alongside the usual ns/op, so `go test -bench=.`
// doubles as the reproduction harness. cmd/paperfigs prints the full
// (non-quick) tables and series.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/arima"
	"repro/internal/experiments"
)

func benchOpts(i int) experiments.Options {
	return experiments.Options{Quick: true, Seed: int64(i + 1)}
}

// BenchmarkFig1VerifyResponse regenerates Fig. 1: ATA vs SAS sequential
// VERIFY response times with the on-disk cache on/off. Metrics: the three
// response-time bands (ms).
func BenchmarkFig1VerifyResponse(b *testing.B) {
	var ataOff, ataOn, sas float64
	for i := 0; i < b.N; i++ {
		ss := experiments.Fig1(benchOpts(i))
		for _, s := range ss {
			switch s.Label {
			case "WD Caviar 320GB cache=false":
				ataOff = s.Y[0]
			case "WD Caviar 320GB cache=true":
				ataOn = s.Y[0]
			case "Hitachi Ultrastar 15K450 300GB cache=false":
				sas = s.Y[0]
			}
		}
	}
	b.ReportMetric(ataOff, "ATAcacheOff_ms")
	b.ReportMetric(ataOn, "ATAcacheOn_ms")
	b.ReportMetric(sas, "SAS_ms")
}

// BenchmarkFig3UserVsKernel regenerates Fig. 3. Metrics: scrub throughput
// of the kernel and user scrubbers at Default priority (MB/s).
func BenchmarkFig3UserVsKernel(b *testing.B) {
	var kernel, user float64
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig3(benchOpts(i))
		for _, r := range tb.Rows {
			switch r[0] {
			case "Default (K)":
				kernel = atof(r[2])
			case "Default (U)":
				user = atof(r[2])
			}
		}
	}
	b.ReportMetric(kernel, "kernelScrub_MBps")
	b.ReportMetric(user, "userScrub_MBps")
}

// BenchmarkFig4VerifyService regenerates Fig. 4. Metric: the SCSI drive's
// small-request VERIFY service time (paper: ~8.8 ms).
func BenchmarkFig4VerifyService(b *testing.B) {
	var scsi float64
	for i := 0; i < b.N; i++ {
		ss := experiments.Fig4(benchOpts(i))
		for _, s := range ss {
			if s.Label == "Fujitsu MAP3367NP 36GB" {
				scsi = s.Y[0]
			}
		}
	}
	b.ReportMetric(scsi, "SCSIverify1KB_ms")
}

// BenchmarkFig5Throughput regenerates Figs. 5a/5b. Metrics: sequential vs
// staggered(512) 64 KB scrub throughput on the Ultrastar.
func BenchmarkFig5Throughput(b *testing.B) {
	var seq, stag512 float64
	for i := 0; i < b.N; i++ {
		ss := experiments.Fig5b(benchOpts(i))
		for _, s := range ss {
			if s.Label == "Hitachi Ultrastar 15K450 300GB sequential (baseline)" {
				seq = s.Y[0]
			}
			if s.Label == "Hitachi Ultrastar 15K450 300GB staggered" {
				stag512 = s.Y[len(s.Y)-1]
			}
		}
	}
	b.ReportMetric(seq, "seq64KB_MBps")
	b.ReportMetric(stag512, "stag512_MBps")
}

// BenchmarkFig6SyntheticImpact regenerates Fig. 6a. Metrics: foreground
// throughput alone and under CFQ-idle scrubbing (MB/s).
func BenchmarkFig6SyntheticImpact(b *testing.B) {
	var alone, underCFQ, scrubCFQ float64
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig6(benchOpts(i), false)
		for _, r := range tb.Rows {
			switch r[0] {
			case "None":
				alone = atof(r[1])
			case "CFQ":
				underCFQ = atof(r[1])
				scrubCFQ = atof(r[2])
			}
		}
	}
	b.ReportMetric(alone, "fgAlone_MBps")
	b.ReportMetric(underCFQ, "fgUnderCFQ_MBps")
	b.ReportMetric(scrubCFQ, "scrubCFQ_MBps")
}

// BenchmarkFig7TraceReplay regenerates Fig. 7. Metrics: median response
// time without scrubbing and under back-to-back scrubbing (ms).
func BenchmarkFig7TraceReplay(b *testing.B) {
	var medNone, medScrub float64
	for i := 0; i < b.N; i++ {
		rs := experiments.Fig7(benchOpts(i))
		med := func(r experiments.Fig7Result) float64 {
			for j, p := range r.CDF.Y {
				if p >= 0.5 {
					return r.CDF.X[j] * 1e3
				}
			}
			return 0
		}
		for _, r := range rs {
			switch r.Label {
			case "No scrubber":
				medNone = med(r)
			case "0ms (Seql)":
				medScrub = med(r)
			}
		}
	}
	b.ReportMetric(medNone, "medianNoScrub_ms")
	b.ReportMetric(medScrub, "medianScrub0ms_ms")
}

// BenchmarkFig8Activity regenerates Fig. 8. Metric: peak-to-trough ratio
// of hourly request counts (diurnal swing).
func BenchmarkFig8Activity(b *testing.B) {
	var swing float64
	for i := 0; i < b.N; i++ {
		ss := experiments.Fig8(benchOpts(i))
		lo, hi := ss[0].Y[0], ss[0].Y[0]
		for _, v := range ss[0].Y {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if lo > 0 {
			swing = hi / lo
		}
	}
	b.ReportMetric(swing, "hourlySwing_x")
}

// BenchmarkFig9ANOVA regenerates Fig. 9. Metrics: disks detected at 24 h
// and detection accuracy against the embedded periods.
func BenchmarkFig9ANOVA(b *testing.B) {
	var daily, correct float64
	for i := 0; i < b.N; i++ {
		tb := experiments.Fig9(benchOpts(i))
		daily, correct = 0, 0
		for _, r := range tb.Rows {
			if r[2] == "24" {
				daily++
			}
			if r[1] == r[2] {
				correct++
			}
		}
	}
	b.ReportMetric(daily, "disksAt24h")
	b.ReportMetric(correct, "correctOf63")
}

// BenchmarkFig10To13IdleCurves regenerates the idle-time analysis.
// Metrics: Fig. 10's tail share at 15% and Fig. 13's usable fraction
// after a 100 ms wait, for MSRsrc11.
func BenchmarkFig10To13IdleCurves(b *testing.B) {
	var tail, usable float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(i)
		for _, s := range experiments.Fig10(o) {
			if s.Label == "MSRsrc11" {
				// Last point is ~0.5 fraction; find nearest to 0.15.
				for j, x := range s.X {
					if x >= 0.15 {
						tail = s.Y[j]
						break
					}
				}
			}
		}
		for _, s := range experiments.Fig13(o) {
			if s.Label == "MSRsrc11" {
				for j, x := range s.X {
					if x >= 0.1 {
						usable = s.Y[j]
						break
					}
				}
			}
		}
		_ = experiments.Fig11(o)
		_ = experiments.Fig12(o)
	}
	b.ReportMetric(tail, "top15pctShare")
	b.ReportMetric(usable, "usableAfter100ms")
}

// BenchmarkFig14PolicyFrontier regenerates Fig. 14 on MSRusr2. Metrics:
// best idle-time utilization of Waiting and AR at comparable collision
// rates.
func BenchmarkFig14PolicyFrontier(b *testing.B) {
	var waitUtil, arUtil float64
	for i := 0; i < b.N; i++ {
		ss := experiments.Fig14(benchOpts(i), "MSRusr2")
		for _, s := range ss {
			best := 0.0
			for _, y := range s.Y {
				if y > best {
					best = y
				}
			}
			switch s.Label {
			case "Waiting":
				waitUtil = best
			case "Auto-Regression":
				arUtil = best
			}
		}
	}
	b.ReportMetric(waitUtil, "waitingBestUtil")
	b.ReportMetric(arUtil, "arBestUtil")
}

// BenchmarkFig15SizeStudy regenerates Fig. 15. Metrics: tuned and 64 KB
// throughput at the 1 ms slowdown point.
func BenchmarkFig15SizeStudy(b *testing.B) {
	var opt, small float64
	for i := 0; i < b.N; i++ {
		ss := experiments.Fig15(benchOpts(i))
		for _, s := range ss {
			switch s.Label {
			case "Optimal fixed":
				opt = nearest(s, 1.0)
			case "64KB fixed":
				small = nearest(s, 1.0)
			}
		}
	}
	b.ReportMetric(opt, "optimal@1ms_MBps")
	b.ReportMetric(small, "64KB@1ms_MBps")
}

// BenchmarkTable2IdleStats regenerates Table II. Metric: measured CoV for
// MSRsrc11 (paper: 21.7).
func BenchmarkTable2IdleStats(b *testing.B) {
	var cov float64
	for i := 0; i < b.N; i++ {
		tb := experiments.Table2(benchOpts(i))
		for _, r := range tb.Rows {
			if r[0] == "MSRsrc11" {
				cov = atof(r[3])
			}
		}
	}
	b.ReportMetric(cov, "src11CoV")
}

// BenchmarkTable3Tuning regenerates Table III's headline comparison for
// HPc6t8d0. Metrics: tuned Waiting throughput at the 1 ms goal vs the CFQ
// baseline (MB/s).
func BenchmarkTable3Tuning(b *testing.B) {
	var waiting, cfq float64
	for i := 0; i < b.N; i++ {
		tb := experiments.Table3(benchOpts(i))
		for _, r := range tb.Rows {
			if r[0] != "HPc6t8d0" {
				continue
			}
			switch r[1] {
			case "Waiting 1ms":
				if r[3] != "-" {
					waiting = atof(r[3])
				}
			case "CFQ":
				cfq = atof(r[3])
			}
		}
	}
	b.ReportMetric(waiting, "waiting1ms_MBps")
	b.ReportMetric(cfq, "cfq_MBps")
}

// BenchmarkTable1Catalog regenerates Table I (trivially cheap; kept so
// every table has a bench target).
func BenchmarkTable1Catalog(b *testing.B) {
	rows := 0
	for i := 0; i < b.N; i++ {
		rows = len(experiments.Table1(benchOpts(i)).Rows)
	}
	b.ReportMetric(float64(rows), "traces")
}

// atof parses benchmark table cells; they are produced by this module, so
// a parse failure is a bug.
func atof(s string) float64 {
	var v float64
	if _, err := fmt.Sscan(s, &v); err != nil {
		panic(err)
	}
	return v
}

func nearest(s experiments.Series, x float64) float64 {
	bestD := -1.0
	bestY := 0.0
	for i := range s.X {
		d := s.X[i] - x
		if d < 0 {
			d = -d
		}
		if bestD < 0 || d < bestD {
			bestD, bestY = d, s.Y[i]
		}
	}
	return bestY
}

// BenchmarkAblations regenerates the four ablation studies (rotational
// miss, CFQ idle gate, AR order, MLET extension). Metrics: the MLET ratio
// of sequential scanning to staggered+region-scrub, and sequential 64 KB
// scrub throughput with the propagation overheads removed.
func BenchmarkAblations(b *testing.B) {
	var mletRatio, seqNoMiss float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(i)
		rot := experiments.AblationRotationalMiss(o)
		seqNoMiss = atof(rot.Rows[1][1])
		_ = experiments.AblationIdleGate(o)
		_ = experiments.AblationAROrder(o)
		ml := experiments.AblationMLET(o)
		seq := parseDurSec(ml.Rows[0][1])
		region := parseDurSec(ml.Rows[2][1])
		if region > 0 {
			mletRatio = seq / region
		}
	}
	b.ReportMetric(mletRatio, "MLETseqOverRegion_x")
	b.ReportMetric(seqNoMiss, "seqNoMiss_MBps")
}

func parseDurSec(s string) float64 {
	d, err := time.ParseDuration(s)
	if err != nil {
		panic(err)
	}
	return d.Seconds()
}

// BenchmarkModelFitSpeed times the paper's Section V-B1 estimator: an
// AIC-selected AR(p) fit by Levinson-Durbin on a 100k-duration series,
// in ms. EXPERIMENTS.md records the ARMA and ACD fits it was once
// compared against.
func BenchmarkModelFitSpeed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100000
	xs := make([]float64, n)
	for i := 1; i < n; i++ {
		xs[i] = 0.5*xs[i-1] + math.Abs(rng.NormFloat64())
	}
	var arMS float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := arima.FitAIC(xs, 8); err != nil {
			b.Fatal(err)
		}
		arMS = float64(time.Since(t0)) / 1e6
	}
	b.ReportMetric(arMS, "AR_ms")
}
