package main

import (
	"io"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(cfg config, log io.Writer) (*outcome, error)
}

// workloads stress different layers (README.md records why each exists,
// with the traced run's measured shares):
//
//   - replay-busy: a dense TPC-C trace, uplifted to stay below the drive's
//     capacity, streamed from MSR-Cambridge CSV. The foreground path (CSV
//     decode, CFQ with a real queue, the seek model) does nearly all the
//     work; idle gaps never reach the scrub threshold.
//   - scrub-idle: a sparse MSR trace from the columnar cache under the
//     Waiting, AR and AR+Waiting policies with fault injection. The
//     scrubber's verify stream through the queue and the disk model does
//     most of the work; the policies themselves cost little.
//   - fleet-sweep: short sharded fleet campaigns without a trace. Besides
//     the members' scrub-only simulation, rebuilding members at every
//     hydrate, parking them and merging their obs snapshots take a large
//     part of the time.
//   - scrubd-mixed: the scrubd daemon over loopback HTTP. Only the service
//     path runs: codec, shards, online AR, checkpoints and net/http.
var workloads = []*workload{
	{name: "replay-busy", run: replayBusy.run},
	{name: "scrub-idle", run: scrubIdle.run},
	{name: "fleet-sweep", run: fleetSweep.run},
	{name: "scrubd-mixed", run: runScrubd},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// scale sizes every workload's inputs.
type scale struct {
	setups int // set-up repetitions per run; setup_s is their median

	replaySegs int           // replay-busy trace segments, one job each
	replaySeg  time.Duration // simulated span of one segment
	idleSegs   int           // scrub-idle windows kept, three policy jobs each
	idleSeg    time.Duration // simulated span of one window
	idleScan   time.Duration // simulated span of trace the windows are taken from

	fleetDrives   int // drives per fleet-sweep campaign
	fleetVariants int // distinct campaign seeds the jobs cycle through
	fleetHorizon  time.Duration
	fleetSlice    time.Duration

	devices     int           // scrubd-mixed devices
	prefeed     int           // feed records per device written during set-up; 65 or more fit every device's AR model
	feedRecords int           // records per POST /v1/feed of the measured phase
	rate        float64       // nominal open-loop request rate, requests per second
	ckptEvery   time.Duration // checkpoint cadence of the closed loop
}

// fullScale is what the benchmark measures. Sizes keep every operation
// short enough that a run holds hundreds of them, and give each seed
// enough distinct segments that its jobs' median does not hang on one
// segment. fleet-sweep's campaigns are short, as in the repository's
// datacenter sweep (scrubbench -max-drives runs 2 s horizons): over 2 min
// horizons the members' own simulation takes over 80% of the time and
// the fleet machinery hardly shows; over 4 s in 1 s slices, 32 drives
// per shard, hydrating, parking and obs merges take about 40% of the CPU.
// scrubd-mixed's 5000 devices keep the daemon's heap and its checkpoints
// small: with 20000 devices a checkpoint takes about 150 ms and allocates
// about 114 MB, and the peak resident set then depends on when the
// collector catches it.
var fullScale = scale{
	setups:        9,
	replaySegs:    12,
	replaySeg:     2 * time.Minute,
	idleSegs:      96,
	idleSeg:       75 * time.Second,
	idleScan:      24 * time.Hour,
	fleetDrives:   256,
	fleetVariants: 4,
	fleetHorizon:  4 * time.Second,
	fleetSlice:    time.Second,
	devices:       5000,
	prefeed:       72,
	feedRecords:   32,
	rate:          8000,
	ckptEvery:     5 * time.Second,
}

// smokeScale keeps each workload near a second, for the package tests.
var smokeScale = scale{
	setups:        1,
	replaySegs:    2,
	replaySeg:     20 * time.Second,
	idleSegs:      1,
	idleSeg:       time.Minute,
	idleScan:      2 * time.Hour,
	fleetDrives:   4,
	fleetVariants: 1,
	fleetHorizon:  time.Minute,
	fleetSlice:    20 * time.Second,
	devices:       400,
	prefeed:       72,
	feedRecords:   32,
	rate:          1000,
	ckptEvery:     100 * time.Millisecond,
}
