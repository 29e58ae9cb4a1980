package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchcmp"
	"repro/internal/obs"
	"repro/internal/scrubd"
)

// loadgenMain is the "scrubbench loadgen" subcommand: a service-level
// load test of the scrubd engine behind its real HTTP surface. It runs
// in-process over a loopback listener so the numbers measure the
// service core (codec, sharded engine, decision path), not container
// networking:
//
//  1. Feed phase: -devices synthetic devices, -records feed records
//     each, POSTed in batches by -clients concurrent feeders (429
//     backpressure answered by draining /v1/sync, then retrying).
//  2. Query phase: -queries GET /v1/decide calls from -clients
//     concurrent clients, per-request latency into fixed-bucket
//     histograms merged for p50/p90/p99.
//  3. Determinism spot check: a subset of the feed replayed twice
//     through fresh engines at different batch sizes must produce
//     byte-identical decision encodings and metric snapshots.
//
// Results land in a BENCH_LOADGEN_<date>.json (benchcmp schema) with
// feed records/sec, query qps and latency percentiles in Extra; with
// -baseline the run gates on regressions like the main suite.
func loadgenMain(argv []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	quick := fs.Bool("quick", false, "CI-sized run: fewer devices and queries")
	devices := fs.Int("devices", 50_000, "device count")
	records := fs.Int("records", 32, "feed records per device")
	queries := fs.Int("queries", 200_000, "decision queries")
	clients := fs.Int("clients", 8, "concurrent feeder/query clients")
	shards := fs.Int("shards", 0, "engine shards (0 = default)")
	seed := fs.Int64("seed", 1, "workload seed")
	out := fs.String("o", "", "output path (default BENCH_LOADGEN_<date>.json)")
	baseline := fs.String("baseline", "", "baseline BENCH_LOADGEN_*.json to compare against")
	threshold := fs.Float64("threshold", 0.25, "tolerated relative regression vs the baseline")
	fs.Parse(argv)

	cfg := loadgenConfig{
		devices: *devices,
		records: *records,
		queries: *queries,
		clients: *clients,
		shards:  *shards,
		seed:    *seed,
	}
	if *quick {
		// Still past the 10k-device bar the service must sustain; only
		// the per-device and query volume shrinks.
		cfg.devices, cfg.records, cfg.queries = 12_000, 24, 60_000
	}

	exitOn("scrubbench loadgen", gate(func() (*benchcmp.Run, error) { return runLoadgen(cfg, *quick, os.Stderr) },
		*out, "BENCH_LOADGEN_", *baseline, *threshold))
}

type loadgenConfig struct {
	devices, records, queries, clients, shards int
	seed                                       int64
}

// loadgenDevName writes the i'th device name ("d0000123") into buf.
func loadgenDevName(buf []byte, i int) []byte {
	buf = append(buf[:0], 'd')
	s := strconv.Itoa(i)
	for pad := 7 - len(s); pad > 0; pad-- {
		buf = append(buf, '0')
	}
	return append(buf, s...)
}

// loadgenGaps returns device i's deterministic inter-arrival gaps in
// µs: an AR(1)-shaped sequence around a per-device mean, so the online
// AR fitters have real structure to chase.
func loadgenGaps(seed int64, i, n int) []int64 {
	rng := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
	mean := 20_000 + rng.Int63n(180_000) // 20–200 ms
	gaps := make([]int64, n)
	dev := 0.0
	for j := range gaps {
		dev = 0.6*dev + rng.NormFloat64()*float64(mean)/5
		g := mean + int64(dev)
		if g < 1_000 {
			g = 1_000
		}
		gaps[j] = g
	}
	return gaps
}

func runLoadgen(cfg loadgenConfig, quick bool, progress io.Writer) (*benchcmp.Run, error) {
	if err := loadgenDeterminism(cfg); err != nil {
		return nil, err
	}

	eng := scrubd.NewEngine(scrubd.Config{Shards: cfg.shards})
	eng.Start()
	defer eng.Close()
	srv := scrubd.NewServer(eng, scrubd.ServerConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	tr := &http.Transport{MaxIdleConnsPerHost: cfg.clients * 2}
	client := &http.Client{Transport: tr}
	defer tr.CloseIdleConnections()

	calNs := float64(calibrate())

	feedRes, lastAt, err := loadgenFeed(cfg, client, base, progress)
	if err != nil {
		return nil, err
	}
	feedRes.CalNs = calNs

	queryRes, err := loadgenQuery(cfg, client, base, lastAt, progress)
	if err != nil {
		return nil, err
	}
	queryRes.CalNs = calNs
	run := benchcmp.NewRun(quick)
	run.Results = []benchcmp.Result{feedRes, queryRes}
	run.PeakRSSBytes = peakRSS()
	return run, nil
}

// loadgenFeed pushes the synthetic feed through POST /v1/feed and
// returns per-device last timestamps for the query phase.
func loadgenFeed(cfg loadgenConfig, client *http.Client, base string, progress io.Writer) (benchcmp.Result, []int64, error) {
	res := benchcmp.Result{Name: "loadgen/feed"}
	lastAt := make([]int64, cfg.devices)
	var firedBackpressure atomic.Int64

	const batchDevs = 64 // devices per POST body
	type job struct{ lo, hi int }
	jobs := make(chan job, cfg.clients)
	errs := make(chan error, cfg.clients)
	var wg sync.WaitGroup

	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			nameBuf := make([]byte, 0, 16)
			for j := range jobs {
				body.Reset()
				body.WriteString(`{"records":[`)
				first := true
				for i := j.lo; i < j.hi; i++ {
					at := int64(1)
					for _, g := range loadgenGaps(cfg.seed, i, cfg.records) {
						at += g
						if !first {
							body.WriteByte(',')
						}
						first = false
						body.WriteString(`{"dev":"`)
						body.Write(loadgenDevName(nameBuf, i))
						body.WriteString(`","at_us":`)
						body.WriteString(strconv.FormatInt(at, 10))
						body.WriteString(`,"bytes":4096}`)
					}
					lastAt[i] = at
				}
				body.WriteString(`]}`)
				if err := loadgenPost(client, base+"/v1/feed", body.Bytes(), &firedBackpressure); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for lo := 0; lo < cfg.devices; lo += batchDevs {
		hi := lo + batchDevs
		if hi > cfg.devices {
			hi = cfg.devices
		}
		jobs <- job{lo, hi}
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return res, nil, err
	default:
	}
	if err := loadgenSync(client, base); err != nil {
		return res, nil, err
	}
	elapsed := time.Since(start)

	total := cfg.devices * cfg.records
	res.NsPerOp = float64(elapsed.Nanoseconds())
	res.EventsPerSec = float64(total) / elapsed.Seconds()
	res.Extra = map[string]float64{
		"devices":      float64(cfg.devices),
		"records":      float64(total),
		"clients":      float64(cfg.clients),
		"backpressure": float64(firedBackpressure.Load()),
	}
	if progress != nil {
		fmt.Fprintf(progress, "loadgen/feed   %8d devices %9d records %12.0f records/sec (%d backpressure)\n",
			cfg.devices, total, res.EventsPerSec, firedBackpressure.Load())
	}
	return res, lastAt, nil
}

// loadgenPost sends one feed batch, answering 429 backpressure by
// draining the queues via /v1/sync and resending. The engine's stale
// drop makes resending the full body safe: already-applied records are
// idempotently ignored.
func loadgenPost(client *http.Client, url string, body []byte, backpressure *atomic.Int64) error {
	for attempt := 0; ; attempt++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return nil
		case http.StatusTooManyRequests:
			if attempt > 50 {
				return fmt.Errorf("feed: backpressure persisted for %d retries", attempt)
			}
			backpressure.Add(1)
			if err := loadgenSync(client, url[:len(url)-len("/v1/feed")]); err != nil {
				return err
			}
		default:
			return fmt.Errorf("feed: unexpected status %d", resp.StatusCode)
		}
	}
}

func loadgenSync(client *http.Client, base string) error {
	resp, err := client.Post(base+"/v1/sync", "application/json", nil)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("sync: unexpected status %d", resp.StatusCode)
	}
	return nil
}

// loadgenQuery fires the decision-query phase and reports throughput
// plus latency percentiles.
func loadgenQuery(cfg loadgenConfig, client *http.Client, base string, lastAt []int64, progress io.Writer) (benchcmp.Result, error) {
	res := benchcmp.Result{Name: "loadgen/decide"}
	perClient := cfg.queries / cfg.clients
	hists := make([]*obs.Histogram, cfg.clients)
	errs := make(chan error, cfg.clients)
	var wg sync.WaitGroup

	start := time.Now()
	for c := 0; c < cfg.clients; c++ {
		hists[c] = obs.NewHistogram(nil)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.seed + 7_777_777 + int64(c)))
			h := hists[c]
			nameBuf := make([]byte, 0, 16)
			var urlBuf bytes.Buffer
			for q := 0; q < perClient; q++ {
				i := rng.Intn(cfg.devices)
				urlBuf.Reset()
				urlBuf.WriteString(base)
				urlBuf.WriteString("/v1/decide?dev=")
				urlBuf.Write(loadgenDevName(nameBuf, i))
				urlBuf.WriteString("&now_us=")
				urlBuf.WriteString(strconv.FormatInt(lastAt[i]+rng.Int63n(1_000_000), 10))
				t0 := time.Now()
				resp, err := client.Get(urlBuf.String())
				if err != nil {
					errs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				h.Observe(time.Since(t0))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("decide: unexpected status %d", resp.StatusCode)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case err := <-errs:
		return res, err
	default:
	}
	elapsed := time.Since(start)

	merged := obs.NewHistogram(nil)
	for _, h := range hists {
		if err := merged.Merge(h); err != nil {
			return res, err
		}
	}
	total := perClient * cfg.clients
	res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(total)
	res.EventsPerSec = float64(total) / elapsed.Seconds()
	res.Extra = map[string]float64{
		"queries": float64(total),
		"clients": float64(cfg.clients),
		"p50_us":  float64(merged.Quantile(0.50)) / 1e3,
		"p90_us":  float64(merged.Quantile(0.90)) / 1e3,
		"p99_us":  float64(merged.Quantile(0.99)) / 1e3,
	}
	if progress != nil {
		fmt.Fprintf(progress, "loadgen/decide %8d queries %12.0f qps   p50 %.0fµs p90 %.0fµs p99 %.0fµs\n",
			total, res.EventsPerSec, res.Extra["p50_us"], res.Extra["p90_us"], res.Extra["p99_us"])
	}
	return res, nil
}

// loadgenDeterminism replays a slice of the synthetic feed twice
// through fresh engines — single batch vs. many small batches, applied
// manually — and fails the run unless decision encodings and metric
// snapshots are byte-identical. The same invariant the scrubd test
// battery pins, checked here against this binary's actual workload.
func loadgenDeterminism(cfg loadgenConfig) error {
	devs := cfg.devices
	if devs > 1000 {
		devs = 1000
	}
	replay := func(batch int) ([]byte, string, error) {
		eng := scrubd.NewEngine(scrubd.Config{Shards: cfg.shards})
		var recs []scrubd.Record
		nameBuf := make([]byte, 0, 16)
		flush := func() error {
			for len(recs) > 0 {
				n, err := eng.IngestBatch(recs)
				eng.ApplyQueued()
				if err != nil {
					return err
				}
				recs = recs[n:]
			}
			recs = recs[:0]
			return nil
		}
		last := make([]int64, devs)
		for i := 0; i < devs; i++ {
			at := int64(1)
			for _, g := range loadgenGaps(cfg.seed, i, cfg.records) {
				at += g
				recs = append(recs, scrubd.Record{Dev: append([]byte(nil), loadgenDevName(nameBuf, i)...), AtUs: at, Bytes: 4096})
				if len(recs) >= batch {
					if err := flush(); err != nil {
						return nil, "", err
					}
				}
			}
			last[i] = at
		}
		if err := flush(); err != nil {
			return nil, "", err
		}
		var dec scrubd.Decision
		var buf []byte
		for i := 0; i < devs; i++ {
			name := loadgenDevName(nameBuf, i)
			for _, idle := range []int64{0, 100_000, 600_000} {
				if err := eng.Decide(name, last[i]+idle, &dec); err != nil {
					return nil, "", err
				}
				buf = scrubd.AppendDecision(buf, &dec)
			}
		}
		snap, err := eng.ObsSnapshot()
		if err != nil {
			return nil, "", err
		}
		var sb bytes.Buffer
		if err := snap.WriteJSON(&sb); err != nil {
			return nil, "", err
		}
		return buf, sb.String(), nil
	}
	d1, s1, err := replay(1 << 20)
	if err != nil {
		return err
	}
	d2, s2, err := replay(97)
	if err != nil {
		return err
	}
	if !bytes.Equal(d1, d2) {
		return fmt.Errorf("loadgen: decisions diverged across batch splits")
	}
	if s1 != s2 {
		return fmt.Errorf("loadgen: metric snapshots diverged across batch splits")
	}
	return nil
}
