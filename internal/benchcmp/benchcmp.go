// Package benchcmp loads and diffs cmd/scrubbench's machine-readable
// BENCH_<date>.json runs, flagging regressions beyond a noise threshold.
// It is the comparison half of the benchmark-regression gate: scrubbench
// produces runs, benchcmp decides whether the current run is acceptably
// close to a checked-in baseline.
package benchcmp

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Schema identifies the current BENCH file layout.
const Schema = "scrubbench/v1"

// Result is one benchmark's measurements. Time and allocation metrics are
// lower-is-better; *PerSec metrics are higher-is-better.
type Result struct {
	// Name identifies the benchmark, slash-scoped (e.g. "replay/TPCdisk66",
	// "shardfleet/shards-8").
	Name string `json:"name"`
	// NsPerOp is wall-clock nanoseconds per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is heap allocations per operation.
	AllocsPerOp float64 `json:"allocs_per_op"`
	// EventsPerSec is simulator events fired per wall-clock second (zero
	// when the benchmark doesn't drive a simulator).
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	// Extra holds benchmark-specific metrics. Keys ending in "_per_sec"
	// compare higher-is-better; all others lower-is-better. Rates
	// ("_per_sec") and times ("_us") are rescaled for host speed like
	// the time metrics; every other key is a count (drives, clients,
	// records) and compares unscaled.
	Extra map[string]float64 `json:"extra,omitempty"`
	// CalNs is the wall time of scrubbench's fixed calibration spin,
	// measured next to this benchmark. Comparisons use the base/current
	// ratio to cancel host-speed differences (CPU frequency scaling,
	// slower CI runners) out of the time metrics; it is never compared
	// itself. Zero disables normalization.
	CalNs float64 `json:"cal_ns,omitempty"`
}

// Run is one scrubbench invocation's output file.
type Run struct {
	Schema string `json:"schema"`
	// Date is the run date, YYYY-MM-DD.
	Date string `json:"date"`
	// GoVersion records the toolchain (runtime.Version()).
	GoVersion string `json:"go_version"`
	// Quick marks a -quick (CI-sized) suite.
	Quick bool `json:"quick"`
	// PeakRSSBytes is the process high-water resident set after the suite.
	PeakRSSBytes int64    `json:"peak_rss_bytes"`
	Results      []Result `json:"results"`
}

// Find returns the named result, or nil.
func (r *Run) Find(name string) *Result {
	for i := range r.Results {
		if r.Results[i].Name == name {
			return &r.Results[i]
		}
	}
	return nil
}

// Load reads a BENCH_*.json file.
func Load(path string) (*Run, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var run Run
	if err := json.Unmarshal(data, &run); err != nil {
		return nil, fmt.Errorf("benchcmp: %s: %w", path, err)
	}
	if run.Schema != Schema {
		return nil, fmt.Errorf("benchcmp: %s: schema %q, want %q", path, run.Schema, Schema)
	}
	return &run, nil
}

// Write saves a run as indented JSON.
func (r *Run) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Delta is one metric's base-to-current change.
type Delta struct {
	// Name is the benchmark, Metric the field compared.
	Name, Metric string
	// Base and Cur are the two values; Pct is the relative change in the
	// regression direction (positive = worse), e.g. +0.30 for 30% slower.
	Base, Cur, Pct float64
	// Regression marks a change beyond the comparison threshold.
	Regression bool
}

func (d Delta) String() string {
	dir := "ok"
	if d.Regression {
		dir = "REGRESSION"
	}
	return fmt.Sprintf("%s %s: %.4g -> %.4g (%+.1f%%) %s", d.Name, d.Metric, d.Base, d.Cur, d.Pct*100, dir)
}

// allocSlack is the absolute allocs/op increase tolerated on top of the
// relative threshold: steady-state counts are tiny (often 0), where any
// relative rule degenerates, and 1-2 allocations of jitter (a map resize,
// a one-off growth) are not a leak.
const allocSlack = 2.0

// Compare diffs every metric of every baseline result against the current
// run. threshold is the tolerated relative regression (0.15 = 15%): time
// and allocation metrics regress when they rise past it, *PerSec metrics
// when they fall past it. A baseline result missing from the current run
// is itself a regression (the gate must not pass because a benchmark
// silently disappeared); results only in the current run are ignored.
func Compare(base, cur *Run, threshold float64) []Delta {
	var out []Delta
	for i := range base.Results {
		b := &base.Results[i]
		c := cur.Find(b.Name)
		if c == nil {
			out = append(out, Delta{Name: b.Name, Metric: "missing", Regression: true})
			continue
		}
		// speed cancels host-speed differences out of the time metrics:
		// the current value is rescaled as if run on the baseline host.
		speed := 1.0
		if b.CalNs > 0 && c.CalNs > 0 {
			speed = b.CalNs / c.CalNs
		}
		out = append(out, cmpLower(b.Name, "ns_per_op", b.NsPerOp, c.NsPerOp*speed, threshold))
		a := cmpLower(b.Name, "allocs_per_op", b.AllocsPerOp, c.AllocsPerOp, threshold)
		if a.Regression && c.AllocsPerOp <= b.AllocsPerOp+allocSlack {
			a.Regression = false
		}
		out = append(out, a)
		if b.EventsPerSec > 0 {
			out = append(out, cmpHigher(b.Name, "events_per_sec", b.EventsPerSec, c.EventsPerSec/speed, threshold))
		}
		keys := make([]string, 0, len(b.Extra))
		for k := range b.Extra {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			bv, cv := b.Extra[k], c.Extra[k]
			switch {
			case strings.HasSuffix(k, "_per_sec"):
				out = append(out, cmpHigher(b.Name, k, bv, cv/speed, threshold))
			case strings.HasSuffix(k, "_us"):
				out = append(out, cmpLower(b.Name, k, bv, cv*speed, threshold))
			default:
				out = append(out, cmpLower(b.Name, k, bv, cv, threshold))
			}
		}
	}
	return out
}

// Regressions filters a Compare result down to the failures.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regression {
			out = append(out, d)
		}
	}
	return out
}

// cmpLower compares a lower-is-better metric.
func cmpLower(name, metric string, base, cur, threshold float64) Delta {
	d := Delta{Name: name, Metric: metric, Base: base, Cur: cur}
	switch {
	case base <= 0:
		// Zero baselines (e.g. 0 allocs/op) cannot express a relative
		// threshold; any rise is a candidate regression and the caller's
		// absolute slack (allocs) or the raw values decide.
		d.Regression = cur > base
		if cur > 0 {
			d.Pct = 1
		}
	default:
		d.Pct = cur/base - 1
		d.Regression = d.Pct > threshold
	}
	return d
}

// cmpHigher compares a higher-is-better metric; Pct stays
// positive-is-worse so callers read one convention.
func cmpHigher(name, metric string, base, cur, threshold float64) Delta {
	d := Delta{Name: name, Metric: metric, Base: base, Cur: cur}
	if base <= 0 {
		return d
	}
	d.Pct = 1 - cur/base
	d.Regression = d.Pct > threshold
	return d
}
