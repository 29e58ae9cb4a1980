// Package scrubbing is the public facade of the practical-scrubbing
// library — the supported surface for building, tuning and running
// idle-time scrub campaigns, after the paper "Practical scrubbing:
// Getting to the bad sector at the right time" (Amvrosiadis, Oprea &
// Schroeder, DSN 2012).
//
// The facade re-exports the stable parts of the internal packages as
// type aliases and thin wrappers, so callers never import internal/...
// directly. A minimal campaign:
//
//	profile, _ := scrubbing.TraceByName("MSRsrc11")
//	tr := profile.Generate(42, time.Hour)
//	sys, choice, err := scrubbing.NewTuned(tr.Records, scrubbing.Ultrastar15K450(),
//		scrubbing.Goal{MeanSlowdown: 2 * time.Millisecond}, scrubbing.Staggered)
//	...
//	sys.Start()
//	err = sys.RunFor(ctx, 10*time.Minute)
//	fmt.Println(sys.Report())
//
// Everything here is an alias, so values created through this package
// interoperate freely with code still using the internal packages.
package scrubbing

import (
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/raid"
	"repro/internal/raidsim"
	"repro/internal/replay"
	"repro/internal/trace"
)

// Core system types.
type (
	// System is an assembled simulation stack: drive, block layer, CFQ
	// elevator, scrubber and scheduling policy.
	System = core.System
	// Option configures a System at construction (see New).
	Option = core.Option
	// Report summarizes a campaign (System.Report).
	Report = core.Report
	// PolicyKind selects how scrub requests are scheduled.
	PolicyKind = core.PolicyKind
	// AlgorithmKind selects the scrub order.
	AlgorithmKind = core.AlgorithmKind
)

// Scheduling policies and scrub orders.
const (
	PolicyCFQIdle    = core.PolicyCFQIdle
	PolicyFixedDelay = core.PolicyFixedDelay
	PolicyWaiting    = core.PolicyWaiting
	PolicyAR         = core.PolicyAR
	PolicyARWaiting  = core.PolicyARWaiting

	Sequential = core.Sequential
	Staggered  = core.Staggered
)

// New assembles a System over a drive model (nil means the default
// Ultrastar 15K450), configured by functional options.
func New(m *Model, opts ...Option) (*System, error) { return core.New(m, opts...) }

// Construction options (see the core package for semantics).
var (
	WithAlgorithm     = core.WithAlgorithm
	WithRegions       = core.WithRegions
	WithPolicy        = core.WithPolicy
	WithRequestBytes  = core.WithRequestBytes
	WithDelay         = core.WithDelay
	WithWaitThreshold = core.WithWaitThreshold
	WithARThreshold   = core.WithARThreshold
	WithAutoRepair    = core.WithAutoRepair
	WithEscalation    = core.WithEscalation
	WithObs           = core.WithObs
	WithFaults        = core.WithFaults
	WithFaultSeed     = core.WithFaultSeed
	WithRetryPolicy   = core.WithRetryPolicy
	// WithDevice runs the system on an arbitrary device model (SSD or
	// HDD); WithIOSched selects the block-layer elevator by name ("cfq",
	// "deadline", "noop", "bsa", "bsa-repair").
	WithDevice  = core.WithDevice
	WithIOSched = core.WithIOSched
)

// Tuning: the paper's Section V-D recipe.
type (
	// Goal is the administrator's tolerable mean/max slowdown.
	Goal = optimize.Goal
	// Choice is a tuned (request size, wait threshold) configuration.
	Choice = optimize.Choice
)

// AutoTune derives the throughput-maximizing scrub parameters for a
// workload trace, drive model and slowdown goal.
var AutoTune = core.AutoTune

// AutoTuneParallel is AutoTune with the size sweep spread over workers
// goroutines, cancellable via ctx.
var AutoTuneParallel = core.AutoTuneParallel

// NewTuned builds a Waiting-policy System with AutoTuned parameters;
// extra options are applied on top.
var NewTuned = core.NewTuned

// AutoTuneSource is AutoTune over a streaming TraceSource: a multi-GB
// on-disk trace tunes in the memory of its idle-gap list.
var AutoTuneSource = core.AutoTuneSource

// AutoTuneSourceParallel is AutoTuneSource with a parallel size sweep.
var AutoTuneSourceParallel = core.AutoTuneSourceParallel

// NewTunedSource is NewTuned over a streaming TraceSource.
var NewTunedSource = core.NewTunedSource

// Sharded fleet engine: datacenter-scale campaigns over serialized
// members. The engine parks members as compact snapshots between time
// slices and executes shards over a work-stealing pool, with
// byte-identical results for any shard/worker/slice choice.
type (
	// FleetEngine advances a sharded fleet of serialized members.
	FleetEngine = fleet.Engine
	// FleetEngineConfig shapes sharding, workers, park cadence and
	// instrumentation.
	FleetEngineConfig = fleet.Config
	// FleetClass is one homogeneous slice of the fleet: Count drives
	// built from the same configuration template.
	FleetClass = fleet.MemberClass
	// FleetReport is the engine's campaign summary: exact integer totals
	// with rates derived once from them.
	FleetReport = fleet.Report
	// SystemConfig is the serializable per-member configuration template
	// a FleetClass carries.
	SystemConfig = core.Config
	// SystemState is one parked member's compact serialized state.
	SystemState = core.SystemState
)

// NewFleetEngine builds a sharded engine over member classes.
var NewFleetEngine = fleet.New

// ResumeFleet reads a fleet checkpoint stream written by
// FleetEngine.Checkpoint and returns the engine ready to continue.
var ResumeFleet = fleet.Resume

// ResumeFleetFile is ResumeFleet over a checkpoint file.
var ResumeFleetFile = fleet.ResumeFile

// Drive models.
type Model = disk.Model

// Ultrastar15K450 returns the paper's primary testbed drive (300 GB,
// 15k RPM).
func Ultrastar15K450() Model { return disk.HitachiUltrastar15K450() }

// DemoDisk returns a tiny 2 GB drive with Ultrastar mechanics, for
// demos needing full scrub passes within seconds of virtual time.
func DemoDisk() Model { return disk.DemoSmall() }

// DiskCatalog returns the paper's full drive testbed.
func DiskCatalog() []Model { return disk.Catalog() }

// Device scenarios: the abstraction that lets systems run on flash as
// well as rotating media.
type (
	// Device is the serviced-device interface the block layer drives;
	// both the rotating-media and flash models implement it.
	Device = disk.Device
	// DeviceModel is a serializable parameter set that can construct a
	// Device (Model and SSDModel both implement it).
	DeviceModel = disk.DeviceModel
	// SSDModel parameterizes the flash device: channel/die parallelism,
	// page geometry and the deterministic FTL garbage-collection pause
	// process that steals idle windows.
	SSDModel = disk.SSDModel
)

// DemoSSD returns a tiny 2 GB flash device for fast full-pass demos.
func DemoSSD() SSDModel { return disk.DemoSSD() }

// NVMeSSD returns the 1 TB datacenter NVMe model.
func NVMeSSD() SSDModel { return disk.NVMeDC1T() }

// SSDCatalog returns the flash device testbed.
func SSDCatalog() []SSDModel { return disk.SSDCatalog() }

// FindDeviceModel resolves a CLI-style device name ("demo", "demo-ssd",
// "nvme", or a catalog-name substring) to a DeviceModel.
var FindDeviceModel = disk.FindModel

// I/O schedulers: the block-layer elevators a system can run on, plus
// the ODSA-style bad-sector-aware scheduler, constructible directly for
// custom stacks (see also WithIOSched).
type (
	// IOScheduler is the block layer's elevator interface.
	IOScheduler = blockdev.Scheduler
	// BSA is the bad-sector-aware scheduler: it learns bad regions from
	// medium errors and segregates (or repairs) suspect traffic.
	BSA = iosched.BSA
)

var (
	NewCFQ       = iosched.NewCFQ
	NewDeadline  = iosched.NewDeadline
	NewNOOP      = iosched.NewNOOP
	NewBSA       = iosched.NewBSA
	NewBSARepair = iosched.NewBSARepair
)

// RAID scenarios: simulated parity groups (clustered and declustered
// layouts) with degraded reads, rebuilds and group scrubs, plus the
// paper's analytic reliability model to check observed loss against.
type (
	// RAIDGroup is a simulated parity group over per-member queues.
	RAIDGroup = raidsim.Group
	// RAIDConfig shapes a group: member count, drive model, layout and
	// (for declustered parity) the stripe width.
	RAIDConfig = raidsim.Config
	// RAIDLayout selects the parity placement.
	RAIDLayout = raidsim.Layout
	// RAIDStats is a group's rebuild/scrub/loss accounting.
	RAIDStats = raidsim.Stats
	// RAIDGroupState is a quiescent group's serialized snapshot.
	RAIDGroupState = raidsim.GroupState
	// RAIDArray parameterizes the analytic MTTDL model.
	RAIDArray = raid.Array
	// RAIDReport is the analytic model's output.
	RAIDReport = raid.Report
)

// Parity layouts.
const (
	LayoutClustered   = raidsim.LayoutClustered
	LayoutDeclustered = raidsim.LayoutDeclustered
)

// NewRAIDGroup builds a simulated parity group.
var NewRAIDGroup = raidsim.New

// RestoreRAIDGroup rehydrates a group from a RAIDGroupState snapshot.
var RestoreRAIDGroup = raidsim.RestoreGroup

// RAIDAnalyze evaluates the analytic reliability model (MTTDL, loss
// probabilities) for an array configuration.
var RAIDAnalyze = raid.Analyze

// Workload traces.
type (
	// Trace is a workload trace (records plus provenance).
	Trace = trace.Trace
	// TraceRecord is one request of a trace.
	TraceRecord = trace.Record
	// TraceSynth is a calibrated synthetic workload generator.
	TraceSynth = trace.Synth
)

// TraceByName finds a catalog workload by name (e.g. "MSRsrc11").
var TraceByName = trace.ByName

// TraceCatalog returns the calibrated workload catalog.
var TraceCatalog = trace.Catalog

// Streaming trace ingestion: real-format parsers, the columnar trace
// cache and the pull-iterator Source every consumer accepts.
type (
	// TraceSource is the streaming pull iterator over trace records;
	// every parser, cache and generator in the library implements it,
	// and tuning/replay consume it in constant memory.
	TraceSource = trace.Source
	// TraceFormat identifies a trace file encoding (see OpenTrace).
	TraceFormat = trace.Format
	// TraceUpliftOptions rescales a dated trace onto a modern device
	// (address-space uplift, time scaling, seeded jitter).
	TraceUpliftOptions = trace.UpliftOptions
	// TraceDeviceProfile is an uplift target device.
	TraceDeviceProfile = trace.DeviceProfile
)

// Trace file encodings accepted by OpenTrace.
const (
	TraceFormatAuto     = trace.FormatUnknown
	TraceFormatNative   = trace.FormatNative
	TraceFormatMSR      = trace.FormatMSR
	TraceFormatCello    = trace.FormatCello
	TraceFormatBlktrace = trace.FormatBlktrace
	TraceFormatCache    = trace.FormatCache
)

// OpenTrace opens a trace file of any supported encoding as a streaming
// TraceSource (TraceFormatAuto sniffs the encoding). Close it with
// CloseTraceSource.
var OpenTrace = trace.Open

// DetectTraceFormat sniffs a trace file's encoding.
var DetectTraceFormat = trace.DetectFormat

// ParseTraceFormat maps a flag value ("auto", "msr", ...) to a format.
var ParseTraceFormat = trace.ParseFormat

// CloseTraceSource closes a source's underlying file when it has one.
var CloseTraceSource = trace.CloseSource

// ReadAllTrace materializes a streaming source into a Trace.
var ReadAllTrace = trace.ReadAll

// BuildTraceCache writes a source to the columnar on-disk cache format
// (delta/varint columns, CRC-framed blocks, atomic rename) and returns
// the record count; OpenTrace replays caches several times faster than
// re-parsing text formats.
var BuildTraceCache = trace.BuildCache

// OpenTraceCache opens a columnar cache file as a resettable source.
var OpenTraceCache = trace.OpenCache

// UpliftTrace rescales a source onto a target device profile
// (TraceTracker-style address-space and inter-arrival rescaling).
var UpliftTrace = trace.Uplift

// Uplift target profiles.
var (
	ProfileHDD300 = trace.ProfileHDD300
	ProfileHDD4T  = trace.ProfileHDD4T
	ProfileSSD1T  = trace.ProfileSSD1T
)

// Trace replay: drive a foreground workload through a System's block
// layer while its scrubber runs. A Replayer consumes any TraceSource —
// materialized slices take the exact bulk path with per-request
// samples; streaming sources (parsers, caches, generators) replay in
// constant memory with aggregate metrics:
//
//	src, _ := scrubbing.OpenTrace("workload.blktrace", scrubbing.TraceFormatAuto)
//	defer scrubbing.CloseTraceSource(src)
//	sys, _ := scrubbing.New(nil)
//	sys.Start()
//	res, _ := (&scrubbing.Replayer{}).RunSource(sys.Sim, sys.Queue, src, 0)
type (
	// Replayer replays a workload trace through a block-layer queue.
	Replayer = replay.Replayer
	// ReplayResult carries the foreground metrics of a replay.
	ReplayResult = replay.Result
)

// Fault injection: the LSE lifecycle subsystem.
type (
	// FaultModel is a deterministic LSE arrival model (see Uniform,
	// Bursty, Accelerated).
	FaultModel = fault.Model
	// FaultStats is an injector's lifecycle accounting.
	FaultStats = fault.Stats
	// Uniform is a homogeneous Poisson process of single-sector errors.
	Uniform = fault.Uniform
	// Bursty plants spatially clustered bursts (the field-study shape).
	Bursty = fault.Bursty
	// Accelerated grows the arrival rate linearly with drive age.
	Accelerated = fault.Accelerated
)

// ParseFaultModel resolves a CLI-style model name ("uniform", "bursty",
// "accel") into a FaultModel.
var ParseFaultModel = fault.ParseModel

// RetryPolicy bounds the block layer's reaction to medium errors.
type RetryPolicy = blockdev.RetryPolicy

// Observability.
type (
	// Registry collects metrics from every instrumented layer.
	Registry = obs.Registry
	// RegistryOption configures a Registry (see WithEventTrace).
	RegistryOption = obs.Option
)

// NewRegistry creates a metrics registry to pass to WithObs.
var NewRegistry = obs.New

// WithEventTrace sizes the registry's event-trace ring buffer.
var WithEventTrace = obs.WithTrace
