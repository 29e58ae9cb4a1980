package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// baseline is the layout of BENCH_E2E_<date>.json and LAYERS_<date>.json.
type baseline struct {
	Host      host               `json:"host"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Workloads map[string]*result `json:"workloads"`
}

// runAll runs every workload untraced and then traced, each in its own
// child process, prints their metrics, and with cfg.out set writes the
// two baselines and copies each traced run's CPU profile beside them.
func runAll(cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	h := hostInfo(cfg.root)
	fmt.Fprintln(stdout, "host", mustJSON(h))
	e2e := baseline{Host: h, Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]*result{}}
	layers := e2e
	layers.Workloads = map[string]*result{}
	ok := true
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace),
				"-root", cfg.root, "-scrubd", cfg.scrubd,
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			res, perr := lastResult(out)
			if perr != nil {
				fmt.Fprintf(stderr, "e2ebench: %s (trace %d): %v (%v)\n", w.name, trace, perr, err)
				ok = false
				continue
			}
			if err != nil || !res.Correct || res.Failed > 0 {
				ok = false
			}
			printTable(stdout, w.name, res.Metrics)
			fmt.Fprintf(stdout, "%-14s correct=%v attempted=%d failed=%d\n", w.name, res.Correct, res.Attempted, res.Failed)
			if trace == 0 {
				e2e.Workloads[w.name] = res
				continue
			}
			layers.Workloads[w.name] = res
			if cfg.out != "" {
				c := cfg
				c.workload = w.name
				prof := w.name + ".cpu.pprof"
				if err := copyFile(filepath.Join(c.workDir(), prof), filepath.Join(cfg.out, "profiles", prof)); err != nil {
					fmt.Fprintln(stderr, "e2ebench:", err)
					ok = false
				}
			}
		}
	}
	if cfg.out != "" {
		for name, b := range map[string]baseline{"BENCH_E2E_": e2e, "LAYERS_": layers} {
			js, err := json.MarshalIndent(b, "", "  ")
			if err == nil {
				err = os.WriteFile(filepath.Join(cfg.out, name+h.Date+".json"), append(js, '\n'), 0o644)
			}
			if err != nil {
				fmt.Fprintln(stderr, "e2ebench:", err)
				ok = false
			}
		}
	}
	fmt.Fprintln(stdout, mustJSON(map[string]bool{"correct": ok}))
	if !ok {
		return 1
	}
	return 0
}

// lastResult parses the result line a workload run ends its output with.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
