// Command e2ebench is the repository's end-to-end benchmark. It drives the
// simulator, the sharded fleet engine and the scrubd daemon the way users
// run them, checks every output against reference digests, and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
//
// Run it from the root of a checkout through run.sh, which builds this
// package and cmd/scrubd first:
//
//	bash e2ebench/run.sh --workload replay-busy --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --out e2ebench/results
//
// A single workload prints, as the last line of standard output, one JSON
// object with the keys correct, attempted, failed and metrics. The
// workload "all" runs every workload untraced and traced, each in its own
// child process, prints a table and, with --out, writes the
// BENCH_E2E_<date>.json and LAYERS_<date>.json baselines and the traced
// runs' CPU profiles. The exit status is non-zero when any output failed
// its check.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	root     string // checkout root: inputs, outputs and the scrubd binary live under it
	scrubd   string // path of the scrubd binary
	out      string // where the workload "all" writes its baselines ("" = nowhere)
}

// workDir is the directory a workload writes its inputs, checkpoints and
// profiles to.
func (c config) workDir() string {
	return filepath.Join(c.root, ".bench_build", "work", c.workload)
}

func (c config) scale() scale {
	if c.smoke {
		return smokeScale
	}
	return fullScale
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark contract asks for.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	serveReferenceIfAsked()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames()+" or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "host seconds the measured phase runs")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs, for tests")
	fs.StringVar(&cfg.root, "root", ".", "root of the checkout")
	fs.StringVar(&cfg.scrubd, "scrubd", "", "scrubd binary (default <root>/.bench_build/scrubd)")
	fs.StringVar(&cfg.out, "out", "", "with --workload all: directory for the baselines and profiles")
	pin := fs.Int("pin", 0, "recompute the pinned digests of seeds 1..N into digests.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1")
		return 2
	}
	cfg.traced = trace == 1
	if cfg.scrubd == "" {
		cfg.scrubd = filepath.Join(cfg.root, ".bench_build", "scrubd")
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: --seconds must be positive")
		return 2
	}
	if *pin > 0 {
		if err := writePins(cfg, *pin, stderr); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	if cfg.workload == "all" {
		return runAll(cfg, stdout, stderr)
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want %s or all)\n", cfg.workload, workloadNames())
		return 2
	}
	res, err := runWorkload(cfg, w, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", cfg.workload, err)
		return 1
	}
	fmt.Fprintln(stdout, "host", mustJSON(hostInfo(cfg.root)))
	printTable(stdout, cfg.workload, res.Metrics)
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload and shapes what it measured into the
// contract's result line.
func runWorkload(cfg config, w *workload, log io.Writer) (*result, error) {
	if err := os.RemoveAll(cfg.workDir()); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir(), 0o755); err != nil {
		return nil, err
	}
	o, err := w.run(cfg, log)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed}
	if cfg.traced {
		res.Metrics = o.layerMetrics()
	} else {
		res.Metrics = o.endToEndMetrics()
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation completed inside the measured window")
	}
	return res, nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // every value passed here is a plain struct or map
	}
	return string(b)
}

// elapsed is a stopwatch reading in seconds.
func elapsed(t0 time.Time) float64 { return time.Since(t0).Seconds() }
