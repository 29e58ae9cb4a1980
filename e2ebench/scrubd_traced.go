package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/scrubd"
)

// scrubdTraced is scrubd-mixed's per-layer pass. The daemon cannot be
// instrumented from outside, so it is measured three ways: an open loop at
// the nominal rate for lateness and backpressure, a closed loop with the
// daemon's CPU time read from /proc, and the same request mix run
// in-process through the scrubd package's public functions: plain under the
// CPU profile, then with each call timed. What the daemon spends per
// request beyond those functions is its HTTP share.
func scrubdTraced(cfg config, sc scale, d *daemon, lg *loadGen, o *outcome) error {
	m := map[string]float64{}
	o.layers = m
	span := func(share float64) time.Duration { return time.Duration(share * cfg.seconds * float64(time.Second)) }
	count := func(st *loadStats) {
		o.attempted += st.requests
		o.failed += st.failed
	}

	open := lg.run(span(0.3), sc.rate, -1)
	count(open)
	m["scrubd.late_frac"] = float64(open.late) / float64(open.requests)
	m["gen.late_frac"] = float64(open.lagged) / float64(open.requests)

	pid := d.cmd.Process.Pid
	cpu0, err := procCPUNs(pid)
	if err != nil {
		return err
	}
	closed := lg.run(span(0.3), 0, -1)
	cpu1, err := procCPUNs(pid)
	if err != nil {
		return err
	}
	count(closed)
	if feeds := open.feeds + closed.feeds; feeds > 0 {
		m["scrubd.backpressure_frac"] = float64(open.backpressure+closed.backpressure) / float64(feeds)
	}
	daemonNs := float64(cpu1-cpu0) / float64(closed.requests)
	m["cpu_ns_per_op"] = daemonNs

	// The in-process engine starts from the daemon's current state: every
	// device's records so far, on a copy of the generators.
	feeds := append([]devFeed(nil), lg.clients[0].feeds...)
	counts := make([]int, len(feeds))
	for dev := range feeds {
		counts[dev] = feeds[dev].n
	}
	eng, err := referenceEngine(cfg.seed, counts)
	if err != nil {
		return err
	}
	sv := &serviceLoop{eng: eng, feeds: feeds, feedRecords: sc.feedRecords, mix: newDevFeed(cfg.seed, -3)}
	profPath := filepath.Join(cfg.workDir(), cfg.workload+".cpu.pprof")
	var plain, timed stretch
	usage, err := measureProcess(profPath, func() { plain = sv.run(span(0.2), false) })
	if err != nil {
		return err
	}
	timedProf := filepath.Join(cfg.workDir(), cfg.workload+".timed.cpu.pprof")
	if _, err := measureProcess(timedProf, func() { timed = sv.run(span(0.2), true) }); err != nil {
		return err
	}
	if sv.err != nil {
		return sv.err
	}
	if err := addShares(profPath, m); err != nil {
		return err
	}
	reqs := float64(plain.reqs)
	m["go.allocs_per_op"] = usage.mallocs / reqs
	m["go.alloc_bytes_per_op"] = usage.allocBytes / reqs
	m["go.gc_cycles"] = usage.gcCycles
	m["trace_overhead_frac"] = (timed.ns/float64(timed.reqs))/(plain.ns/float64(plain.reqs)) - 1
	service := sv.decode + sv.ingest + sv.parse + sv.decide + sv.encode
	m["scrubd.decode_frac"] = sv.decode / service
	m["scrubd.ingest_frac"] = sv.ingest / service
	m["scrubd.parse_frac"] = sv.parse / service
	m["scrubd.decide_frac"] = sv.decide / service
	m["scrubd.encode_frac"] = sv.encode / service
	m["scrubd.http_frac"] = 1 - service/float64(timed.reqs)/daemonNs

	var cw countingWriter
	if _, err := eng.Checkpoint(&cw); err != nil {
		return err
	}
	m["scrubd.checkpoint_bytes"] = float64(cw.n)
	return nil
}

// serviceLoop runs scrubd-mixed's request mix in-process: feed bodies
// through DecodeFeed, IngestBatch and ApplyQueued, decide queries through
// ParseDecideQuery, DecideString and AppendDecision. A plain stretch gives
// the profile; a timed stretch gives each function's nanoseconds and,
// against the plain one, the cost of timing them.
type serviceLoop struct {
	eng         *scrubd.Engine
	feeds       []devFeed
	feedRecords int
	mix         devFeed

	decode, ingest, parse, decide, encode float64 // timed nanoseconds
	err                                   error
}

// stretch is how many requests a run of the service loop made and how
// long they took.
type stretch struct {
	reqs int64
	ns   float64
}

const serviceBlock = 2000

// run makes requests, in blocks of serviceBlock, until d has passed.
func (sv *serviceLoop) run(d time.Duration, timed bool) stretch {
	var (
		body, query, out []byte
		recs             []scrubd.Record
		dec              scrubd.Decision
		st               stretch
	)
	t0 := time.Now()
	for deadline := t0.Add(d); sv.err == nil && (st.reqs == 0 || time.Now().Before(deadline)); st.reqs += serviceBlock {
		for i := 0; i < serviceBlock && sv.err == nil; i++ {
			dev := int(sv.mix.uniform() * float64(len(sv.feeds)))
			f := &sv.feeds[dev]
			if sv.mix.uniform() < feedShare {
				body = append(body[:0], `{"records":[`...)
				body = appendRecords(body, dev, f, sv.feedRecords, true)
				body = append(body, "]}"...)
				var t1, t2, t3 time.Time
				if timed {
					t1 = time.Now()
				}
				recs, sv.err = scrubd.DecodeFeed(body, recs[:0])
				if timed {
					t2 = time.Now()
				}
				if sv.err == nil {
					_, sv.err = sv.eng.IngestBatch(recs)
					sv.eng.ApplyQueued()
				}
				if timed {
					t3 = time.Now()
					sv.decode += float64(t2.Sub(t1))
					sv.ingest += float64(t3.Sub(t2))
				}
				continue
			}
			query = append(query[:0], "dev="...)
			query = appendDevName(query, dev)
			query = append(query, "&now_us="...)
			query = strconv.AppendInt(query, f.at+int64(sv.mix.uniform()*1e6), 10)
			q := string(query)
			var t1, t2, t3, t4 time.Time
			if timed {
				t1 = time.Now()
			}
			name, now, err := scrubd.ParseDecideQuery(q)
			if timed {
				t2 = time.Now()
			}
			if err == nil {
				err = sv.eng.DecideString(name, now, &dec)
			}
			if timed {
				t3 = time.Now()
			}
			out = scrubd.AppendDecision(out[:0], &dec)
			if timed {
				t4 = time.Now()
				sv.parse += float64(t2.Sub(t1))
				sv.decide += float64(t3.Sub(t2))
				sv.encode += float64(t4.Sub(t3))
			}
			if err != nil {
				sv.err = fmt.Errorf("decide %s: %w", q, err)
			}
		}
	}
	st.ns = float64(time.Since(t0))
	return st
}
