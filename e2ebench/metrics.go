package main

import (
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric and its unit. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatchesMetrics keeps the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the untraced run's metrics. Every workload reports every
// one of them; what a work unit and an operation are depends on the
// workload (see README.md). Timings are rescaled to the reference host
// speed (see calib.go):
//
//   - setup_s: median host time of the workload's set-up, repeated
//     scale.setups times per run.
//   - peak_rss_mb: peak resident memory of the process doing the work
//     (the benchmark process, or the scrubd daemon for scrubd-mixed).
//   - work_per_s: simulator events per host second for the simulator
//     workloads, requests per second of the closed-loop phase for
//     scrubd-mixed. Events, not simulated seconds, so that the rate does
//     not move with how dense a seed's trace is; the pinned digests fix
//     every job's event count.
//   - latency_p50_ms, latency_p90_ms: host time of one operation, a
//     whole simulation job or one HTTP request at the nominal open-loop
//     rate, sent to done.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
}

// shareLayers are the layers the traced run's CPU profile attributes
// samples to (see profile.go); each becomes a "<layer>.share" metric.
var shareLayers = []string{
	"sim", "trace", "replay", "iosched", "blockdev", "disk", "scrub",
	"schedpolicy", "arima", "stats", "fault", "obs", "core", "fleet", "par",
	"scrubd", "http", "harness", "runtime", "other",
}

// perLayer are the traced run's metrics. Every workload reports every one
// of them; a layer the workload does not run reads 0. Times are only
// reported where every workload has them (cpu_ns_per_op); layer costs are
// shares of it, so a missing layer is a 0 share rather than a made-up
// time.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cpu_ns_per_op", "ns"},
		{"go.allocs_per_op", "count"},
		{"go.alloc_bytes_per_op", "B"},
		{"go.gc_cycles", "count"},
		{"trace_overhead_frac", "frac"},
	}
	for _, l := range shareLayers {
		defs = append(defs, metricDef{l + ".share", "frac"})
	}
	return append(defs,
		// Simulated counts of the simulator workloads.
		metricDef{"sim.events_per_sim_s", "count"},
		metricDef{"scrub.mb_per_sim_s", "MB/sim-s"},
		metricDef{"fault.injected", "count"},
		metricDef{"fault.detected", "count"},
		// Interface seams of the replay workloads.
		metricDef{"trace.seam_frac", "frac"},
		metricDef{"iosched.seam_frac", "frac"},
		metricDef{"disk.seam_frac", "frac"},
		metricDef{"iosched.calls_per_record", "count"},
		metricDef{"iosched.next_empty_frac", "frac"},
		metricDef{"disk.calls_per_record", "count"},
		metricDef{"disk.cache_hit_frac", "frac"},
		metricDef{"blockdev.collision_frac", "frac"},
		// Layer ladder of the replay workloads.
		metricDef{"ladder.trace.frac", "frac"},
		metricDef{"ladder.sim.frac", "frac"},
		metricDef{"ladder.blockdev.frac", "frac"},
		metricDef{"ladder.disk.frac", "frac"},
		metricDef{"ladder.scrub_waiting.frac", "frac"},
		metricDef{"ladder.scrub_ar.frac", "frac"},
		metricDef{"ladder.obs.frac", "frac"},
		metricDef{"ladder.scrub_waiting.allocs_per_record", "count"},
		metricDef{"ladder.scrub_ar.allocs_per_record", "count"},
		metricDef{"ladder.obs.allocs_per_record", "count"},
		// Fleet ablations.
		metricDef{"par.speedup_2w", "x"},
		metricDef{"fleet.park_frac", "frac"},
		metricDef{"fleet.obs_frac", "frac"},
		metricDef{"fleet.state_bytes_per_member", "B"},
		metricDef{"fleet.allocs_per_member", "count"},
		metricDef{"fleet.alloc_bytes_per_member", "B"},
		// Service path of scrubd-mixed.
		metricDef{"scrubd.decode_frac", "frac"},
		metricDef{"scrubd.ingest_frac", "frac"},
		metricDef{"scrubd.parse_frac", "frac"},
		metricDef{"scrubd.decide_frac", "frac"},
		metricDef{"scrubd.encode_frac", "frac"},
		metricDef{"scrubd.http_frac", "frac"},
		metricDef{"scrubd.backpressure_frac", "frac"},
		metricDef{"scrubd.late_frac", "frac"},
		metricDef{"scrubd.checkpoint_bytes", "B"},
		metricDef{"gen.late_frac", "frac"},
	)
}()

// outcome is what one workload run measured, before it is shaped into
// metrics.
type outcome struct {
	correct           bool
	attempted, failed int64

	// Untraced runs only, every timing rescaled to the reference host speed:
	// by the calibration kernel (calib.go) for the simulator workloads, by
	// the reference server (reference.go) for scrubd-mixed.
	setup          []float64 // seconds of each set-up repetition
	rssMB          float64
	latP50, latP90 float64 // seconds per operation
	workPerS       float64

	layers map[string]float64 // traced runs only
}

func (o *outcome) endToEndMetrics() map[string]metric {
	return shape(endToEnd, map[string]float64{
		"setup_s":        median(o.setup),
		"peak_rss_mb":    o.rssMB,
		"work_per_s":     o.workPerS,
		"latency_p50_ms": 1e3 * o.latP50,
		"latency_p90_ms": 1e3 * o.latP90,
	})
}

func (o *outcome) layerMetrics() map[string]metric {
	return shape(perLayer, o.layers)
}

// shape gives every defined metric its value (0 when the workload did not
// measure it) and its unit.
func shape(defs []metricDef, vals map[string]float64) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		m[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return m
}

// printTable writes one line per metric, sorted by name.
func printTable(w io.Writer, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-14s %-40s %16.6g %s\n", workload, n, m[n].Value, m[n].Unit)
	}
}
