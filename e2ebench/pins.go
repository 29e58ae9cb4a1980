package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// digests.json pins, per workload and seed, the digest of the workload's
// reference outputs: every simulated statistic of every job for the
// simulator workloads, the sampled decisions after the set-up's prefeed
// for scrubd-mixed. A change that only speeds the program up must leave
// them identical; "e2ebench -pin N" recomputes seeds 1..N at full scale.
//
//go:embed digests.json
var pinsJSON []byte

var pins = func() map[string]map[string]string {
	var p map[string]map[string]string
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err)) // the file is written by -pin
	}
	return p
}()

// pinned returns the pinned digest of a workload's outputs for seed.
// Smoke-scale runs have none.
func pinned(workload string, seed int64, smoke bool) (string, bool) {
	if smoke {
		return "", false
	}
	d, ok := pins[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// writePins recomputes the digests of seeds 1..n and writes digests.json
// into the benchmark's directory under root.
func writePins(cfg config, n int, log io.Writer) error {
	out := map[string]map[string]string{}
	for _, w := range []*simWorkload{replayBusy, scrubIdle, fleetSweep} {
		out[w.name] = map[string]string{}
		cfg.workload = w.name
		for seed := int64(1); seed <= int64(n); seed++ {
			jobs, err := w.setupOnce(filepath.Join(cfg.workDir(), "inputs"), seed, fullScale)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			out[w.name][strconv.FormatInt(seed, 10)] = digestOf(jobs)
		}
		fmt.Fprintf(log, "pinned %s seeds 1..%d\n", w.name, n)
	}
	out["scrubd-mixed"] = map[string]string{}
	for seed := int64(1); seed <= int64(n); seed++ {
		d, err := scrubdDigest(seed, fullScale)
		if err != nil {
			return fmt.Errorf("scrubd-mixed seed %d: %w", seed, err)
		}
		out["scrubd-mixed"][strconv.FormatInt(seed, 10)] = d
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.root, "e2ebench", "digests.json"), append(b, '\n'), 0o644)
}
