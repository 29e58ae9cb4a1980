// Package scrubbing is the public facade of the practical-scrubbing
// library — the supported surface for building, tuning and running
// idle-time scrub campaigns, after the paper "Practical scrubbing:
// Getting to the bad sector at the right time" (Amvrosiadis, Oprea &
// Schroeder, DSN 2012).
//
// The facade re-exports, as aliases, the parts of the internal packages
// that examples/quickstart and the README use, plus whatever is needed
// to build their arguments. A minimal campaign:
//
//	profile, _ := scrubbing.TraceByName("MSRsrc11")
//	tr := profile.Generate(42, time.Hour)
//	sys, choice, err := scrubbing.NewTuned(tr.Source(), scrubbing.Ultrastar15K450(),
//		scrubbing.Goal{MeanSlowdown: 2 * time.Millisecond}, scrubbing.Staggered)
//	...
//	sys.Start()
//	err = sys.RunFor(ctx, 10*time.Minute)
//	fmt.Println(sys.Report())
//
// Values created through this package interoperate freely with code
// using the internal packages.
package scrubbing

import (
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/replay"
	"repro/internal/trace"
)

// New assembles a System over a drive model (nil means the default
// Ultrastar 15K450), configured by functional options.
var New = core.New

// Construction options (see the core package for semantics).
var (
	WithPolicy      = core.WithPolicy
	WithObs         = core.WithObs
	WithFaults      = core.WithFaults
	WithAutoRepair  = core.WithAutoRepair
	WithEscalation  = core.WithEscalation
	WithRetryPolicy = core.WithRetryPolicy
)

// Scheduling policies (WithPolicy) and scrub orders (NewTuned).
const (
	PolicyCFQIdle    = core.PolicyCFQIdle
	PolicyFixedDelay = core.PolicyFixedDelay
	PolicyWaiting    = core.PolicyWaiting
	PolicyAR         = core.PolicyAR
	PolicyARWaiting  = core.PolicyARWaiting

	Sequential = core.Sequential
	Staggered  = core.Staggered
)

// RetryPolicy bounds the block layer's reaction to medium errors.
type RetryPolicy = blockdev.RetryPolicy

// NewRegistry creates a metrics registry to pass to WithObs.
var NewRegistry = obs.New

// Fault models for WithFaults.
type (
	// Uniform is a homogeneous Poisson process of single-sector errors.
	Uniform = fault.Uniform
	// Bursty plants spatially clustered bursts (the field-study shape).
	Bursty = fault.Bursty
)

// Goal is the administrator's tolerable mean/max slowdown.
type Goal = optimize.Goal

// AutoTune implements the paper's Section V-D recipe: it derives the
// throughput-maximizing scrub request size and wait threshold for a
// workload trace, drive model and slowdown goal. The size sweep runs
// over workers goroutines (0 means GOMAXPROCS) and is cancellable via
// ctx; the choice is the same for every worker count.
var AutoTune = core.AutoTune

// NewTuned builds a Waiting-policy System with AutoTuned parameters;
// extra options are applied on top.
var NewTuned = core.NewTuned

// Sharded fleet engine: datacenter-scale campaigns over serialized
// members, with byte-identical results for any shard/worker/slice
// choice.
type (
	// FleetEngineConfig shapes sharding, workers, park cadence and
	// instrumentation.
	FleetEngineConfig = fleet.Config
	// FleetClass is one homogeneous slice of the fleet: Count drives
	// built from the same configuration template.
	FleetClass = fleet.MemberClass
	// SystemConfig is the serializable per-member configuration template
	// a FleetClass carries.
	SystemConfig = core.Config
)

// NewFleetEngine builds a sharded engine over member classes.
var NewFleetEngine = fleet.New

// ResumeFleetFile reads a fleet checkpoint file written by the engine's
// CheckpointFile and returns the engine ready to continue.
var ResumeFleetFile = fleet.ResumeFile

// Ultrastar15K450 returns the paper's primary testbed drive (300 GB,
// 15k RPM).
var Ultrastar15K450 = disk.HitachiUltrastar15K450

// DemoDisk returns a tiny 2 GB drive with Ultrastar mechanics, for
// demos needing full scrub passes within seconds of virtual time.
var DemoDisk = disk.DemoSmall

// TraceByName finds a catalog workload by name (e.g. "MSRsrc11").
var TraceByName = trace.ByName

// Trace file encodings accepted by OpenTrace.
const (
	TraceFormatAuto  = trace.FormatUnknown
	TraceFormatCache = trace.FormatCache
)

// OpenTrace opens a trace file of any supported encoding as a streaming
// trace source (TraceFormatAuto sniffs the encoding). Close it with
// CloseTraceSource.
var OpenTrace = trace.Open

// CloseTraceSource closes a source's underlying file when it has one.
var CloseTraceSource = trace.CloseSource

// BuildTraceCache writes a source to the columnar on-disk cache format
// (delta/varint columns, CRC-framed blocks, atomic rename) and returns
// the record count; OpenTrace replays caches several times faster than
// re-parsing text formats.
var BuildTraceCache = trace.BuildCache

// UpliftTrace rescales a source onto a target device profile
// (TraceTracker-style address-space and inter-arrival rescaling).
var UpliftTrace = trace.Uplift

// TraceUpliftOptions rescales a dated trace onto a modern device
// (address-space uplift, time scaling, seeded jitter).
type TraceUpliftOptions = trace.UpliftOptions

// Uplift target profiles.
var (
	ProfileHDD300 = trace.ProfileHDD300
	ProfileHDD4T  = trace.ProfileHDD4T
	ProfileSSD1T  = trace.ProfileSSD1T
)

// Replayer replays a workload trace through a System's block layer
// while its scrubber runs. It consumes any trace source through one
// bounded look-ahead window: materialized slices also keep per-request
// samples; streaming sources (parsers, caches, generators) replay in
// constant memory with aggregate metrics:
//
//	src, _ := scrubbing.OpenTrace("workload.blktrace", scrubbing.TraceFormatAuto)
//	defer scrubbing.CloseTraceSource(src)
//	sys, _ := scrubbing.New(nil)
//	sys.Start()
//	res, _ := (&scrubbing.Replayer{}).RunSource(sys.Sim, sys.Queue, src, 0)
type Replayer = replay.Replayer
