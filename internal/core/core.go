// Package core is the public façade of the practical-scrubbing library: it
// wires a drive model, block layer, I/O scheduler, scrubbing algorithm and
// scrub scheduling policy into one System, and implements the paper's
// bottom-line recipe (Section V-D): record a short trace of the workload,
// auto-tune the two parameters of the Waiting policy — the scrub request
// size and the wait threshold — for an administrator-given slowdown goal,
// then scrub with those parameters.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/fault"
	"repro/internal/idlesim"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/optimize"
	"repro/internal/par"
	"repro/internal/schedpolicy"
	"repro/internal/scrub"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PolicyKind selects how scrub requests are scheduled.
type PolicyKind int

const (
	// PolicyCFQIdle issues back-to-back requests in CFQ's Idle class: the
	// practice the paper improves upon.
	PolicyCFQIdle PolicyKind = iota + 1
	// PolicyFixedDelay issues requests every Delay, the conventional
	// fixed-rate scrubber.
	PolicyFixedDelay
	// PolicyWaiting fires after WaitThreshold of device idleness: the
	// paper's winning policy.
	PolicyWaiting
	// PolicyAR fires when an AR(p) prediction of the current idle
	// interval exceeds ARThreshold.
	PolicyAR
	// PolicyARWaiting combines the two.
	PolicyARWaiting
)

// String implements fmt.Stringer.
func (p PolicyKind) String() string {
	switch p {
	case PolicyCFQIdle:
		return "cfq-idle"
	case PolicyFixedDelay:
		return "fixed-delay"
	case PolicyWaiting:
		return "waiting"
	case PolicyAR:
		return "ar"
	case PolicyARWaiting:
		return "ar+waiting"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(p))
	}
}

// ParsePolicy returns the policy whose String is name.
func ParsePolicy(name string) (PolicyKind, error) {
	for p := PolicyCFQIdle; p <= PolicyARWaiting; p++ {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// AlgorithmKind selects the scrub order.
type AlgorithmKind int

const (
	// Sequential scans in ascending LBN order.
	Sequential AlgorithmKind = iota + 1
	// Staggered probes Regions regions round-robin (lower MLET; same
	// throughput for >= 128 regions per the paper's Section IV).
	Staggered
)

// Config assembles a System. It is the gob-serializable member template:
// fleet.MemberClass carries one, fleet checkpoints store it, and
// NewFromConfig followed by System.Restore rebuilds a parked member from
// it. Interactive callers
// usually reach the same fields through New and functional Options.
type Config struct {
	// Model is the drive model (default: Hitachi Ultrastar 15K450).
	Model *disk.Model
	// Device, when non-nil, selects any device model — rotational or
	// solid-state — and takes precedence over Model (see WithDevice).
	Device disk.DeviceModel
	// Sched names the I/O scheduler: "cfq" (default), "deadline",
	// "noop", "bsa" or "bsa-repair" (see WithIOSched).
	Sched string
	// Algorithm selects scrub order (default Staggered).
	Algorithm AlgorithmKind
	// Regions for staggered scrubbing (default 128).
	Regions int
	// Mode selects kernel vs user level issuing (default kernel).
	Mode scrub.Mode
	// Policy selects scheduling (default PolicyWaiting).
	Policy PolicyKind
	// ReqBytes is the scrub request size (default 64 KB; AutoTune
	// overrides it).
	ReqBytes int64
	// Delay for PolicyFixedDelay.
	Delay time.Duration
	// WaitThreshold for PolicyWaiting / PolicyARWaiting.
	WaitThreshold time.Duration
	// ARThreshold for PolicyAR / PolicyARWaiting.
	ARThreshold time.Duration
	// AutoRepair rewrites sectors whose verify detected a latent error,
	// completing the detect-and-correct loop.
	AutoRepair bool
	// Escalate enables region re-scrub on detection (see WithEscalation).
	Escalate bool
	// Retry bounds the block layer's reaction to medium errors (see
	// WithRetryPolicy). The zero value means no retries.
	Retry blockdev.RetryPolicy
	// Faults, when non-nil, plants this model's LSE arrival stream on the
	// disk once the system starts (see WithFaults).
	Faults fault.Model
	// FaultSeed seeds the fault stream's RNG (default 1).
	FaultSeed int64
	// Obs, when non-nil, instruments every layer of the stack against this
	// metrics registry (see System.Instrument). Nil leaves the
	// zero-overhead uninstrumented path in place.
	Obs *obs.Registry
}

// System is an assembled simulation stack ready to run scrub campaigns
// against foreground workloads.
type System struct {
	Sim *sim.Simulator //scrublint:transient clock recorded as Now/Seq/Fired by Snapshot
	// Device is the drive the stack runs against — rotational or
	// solid-state. Disk aliases it when (and only when) the device is the
	// rotational model; it is nil for SSD-backed systems, so code that
	// needs seek-model specifics must nil-check it.
	Device   disk.Device //scrublint:transient recorded as Disk or SSD by Snapshot
	Disk     *disk.Disk
	Queue    *blockdev.Queue
	Scrubber *scrub.Scrubber //scrublint:transient recorded as Scrub by Snapshot
	// Faults is the LSE injector, non-nil when the system was built with
	// WithFaults. It starts planting errors when the system starts.
	Faults *fault.Injector //scrublint:transient recorded as Fault by Snapshot

	cfg    Config             //scrublint:transient configuration, supplied to Restore by the caller
	cfq    *iosched.CFQ       // nil unless Sched is CFQ
	sched  blockdev.Scheduler //scrublint:transient wiring rebuilt from cfg by Restore
	policy schedpolicy.Policy
	reg    *obs.Registry

	// kickTimer is the pending kick, recorded as HasKick/KickAt/KickSeq
	// by Snapshot.
	kickTimer sim.Timer
}

// New assembles a System over the given drive model (nil means the
// default Hitachi Ultrastar 15K450), configured by functional options.
// The I/O scheduler is always CFQ — the only Linux scheduler with I/O
// priorities, which PolicyCFQIdle requires; the other policies simply
// never leave requests parked in it.
func New(m *disk.Model, opts ...Option) (*System, error) {
	cfg := Config{Model: m}
	for _, opt := range opts {
		opt(&cfg)
	}
	return build(cfg)
}

// NewFromConfig assembles a System from a Config struct — the path a
// serialized member template takes (see Config). New runs the same
// construction path over options applied to a Config.
func NewFromConfig(cfg Config) (*System, error) {
	return build(cfg)
}

func build(cfg Config) (*System, error) {
	var dm disk.DeviceModel = disk.HitachiUltrastar15K450()
	if cfg.Model != nil {
		dm = *cfg.Model
	}
	if cfg.Device != nil {
		dm = cfg.Device
	}
	d, err := dm.NewDevice()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if cfg.ReqBytes <= 0 {
		cfg.ReqBytes = 64 << 10
	}
	if cfg.Regions <= 0 {
		cfg.Regions = 128
	}
	if cfg.Algorithm == 0 {
		cfg.Algorithm = Staggered
	}
	if cfg.Policy == 0 {
		cfg.Policy = PolicyWaiting
	}
	if cfg.WaitThreshold <= 0 {
		// Per-model default: the idle-window statistics that make 100 ms
		// right for a disk arm do not transfer to flash (no seek penalty,
		// GC pauses on the scale of milliseconds), so the device model
		// owns the starting threshold.
		cfg.WaitThreshold = dm.DefaultWaitThreshold()
	}
	if cfg.WaitThreshold <= 0 {
		cfg.WaitThreshold = 100 * time.Millisecond
	}
	if cfg.ARThreshold <= 0 {
		cfg.ARThreshold = cfg.WaitThreshold
	}

	s := sim.New()
	sched, err := iosched.New(cfg.Sched)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	cfq, _ := sched.(*iosched.CFQ)
	if cfg.Policy == PolicyCFQIdle && cfq == nil {
		return nil, fmt.Errorf("core: policy cfq-idle requires the cfq scheduler, not %q", cfg.Sched)
	}
	q := blockdev.NewQueue(s, d, sched)

	var alg scrub.Algorithm
	switch cfg.Algorithm {
	case Sequential:
		alg, err = scrub.NewSequential(d.Sectors())
	case Staggered:
		alg, err = scrub.NewStaggered(d.Sectors(), cfg.ReqBytes/disk.SectorSize, cfg.Regions)
	default:
		err = fmt.Errorf("core: unknown algorithm %d", cfg.Algorithm)
	}
	if err != nil {
		return nil, err
	}

	class := blockdev.ClassBE
	delay := time.Duration(0)
	switch cfg.Policy {
	case PolicyCFQIdle:
		class = blockdev.ClassIdle
	case PolicyFixedDelay:
		delay = cfg.Delay
	case PolicyWaiting, PolicyAR, PolicyARWaiting:
		// Policy-driven firing, default class.
	default:
		return nil, fmt.Errorf("core: unknown policy %d", cfg.Policy)
	}

	sc, err := scrub.New(s, q, scrub.Config{
		Algorithm:  alg,
		Mode:       cfg.Mode,
		Class:      class,
		Delay:      delay,
		Size:       scrub.FixedSize(cfg.ReqBytes / disk.SectorSize),
		AutoRepair: cfg.AutoRepair,
		Escalate:   cfg.Escalate,
	})
	if err != nil {
		return nil, err
	}
	q.SetRetryPolicy(cfg.Retry)

	sys := &System{Sim: s, Device: d, Queue: q, Scrubber: sc, cfg: cfg, cfq: cfq, sched: sched}
	sys.Disk, _ = d.(*disk.Disk)
	sys.kickTimer.Init(s, sys.kickFire)
	if cfg.Faults != nil {
		seed := cfg.FaultSeed
		if seed == 0 {
			seed = 1
		}
		sys.Faults = fault.NewInjector(s, d, cfg.Faults, seed)
		sys.Faults.AttachQueue(q)
	}
	switch cfg.Policy {
	case PolicyWaiting:
		sys.policy = &schedpolicy.Waiting{Threshold: cfg.WaitThreshold}
	case PolicyAR:
		sys.policy = &schedpolicy.AR{Threshold: cfg.ARThreshold}
	case PolicyARWaiting:
		sys.policy = &schedpolicy.ARWaiting{
			WaitThreshold: cfg.WaitThreshold,
			ARThreshold:   cfg.ARThreshold,
		}
	}
	if sys.policy != nil {
		sys.policy.Attach(s, q, sc)
	}
	if cfg.Obs != nil {
		sys.Instrument(cfg.Obs)
	}
	return sys, nil
}

// Config returns the (defaulted) configuration the system was built with.
func (sys *System) Config() Config { return sys.cfg }

// Obs returns the registry the system is instrumented against, or nil.
func (sys *System) Obs() *obs.Registry { return sys.reg }

// Instrument attaches every layer of the stack to a metrics registry:
// the disk (service times, cache), the elevator (dispatch decisions),
// the block layer (queue depth, wait times, collisions), the scrubber
// (progress, inflicted service time), the scheduling policy (decision
// counters) and two end-to-end foreground histograms —
// core.fg.slowdown, the queueing delay a foreground request suffered
// (dispatch minus submit, the paper's slowdown measure), and
// core.fg.response_time, submit to completion. A nil reg is a no-op;
// the foreground subscription is only installed when instrumenting, so
// uninstrumented systems pay nothing.
func (sys *System) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sys.reg = reg
	sys.Device.Instrument(reg)
	if in, ok := sys.sched.(interface{ Instrument(*obs.Registry) }); ok {
		in.Instrument(reg)
	}
	sys.Queue.Instrument(reg)
	sys.Scrubber.Instrument(reg)
	if sys.Faults != nil {
		sys.Faults.Instrument(reg)
	}
	if sys.policy != nil {
		sys.policy.Instrument(reg)
	}
	slowdown := reg.Histogram("core.fg.slowdown")
	response := reg.Histogram("core.fg.response_time")
	sys.Queue.SubscribeComplete(func(r *blockdev.Request) {
		if r.Origin != blockdev.Foreground {
			return
		}
		slowdown.Observe(r.Dispatch - r.Submit)
		response.Observe(r.Done - r.Submit)
	})
}

// Start begins scrubbing — and, when the system carries a fault model,
// the LSE arrival stream. Policy-driven systems wait for their first
// idleness trigger (see kick for fully idle systems); CFQ-idle and
// fixed-delay systems start issuing immediately.
func (sys *System) Start() {
	if sys.Faults != nil {
		sys.Faults.Start()
	}
	switch sys.cfg.Policy {
	case PolicyWaiting, PolicyAR, PolicyARWaiting:
		sys.kick()
	default:
		sys.Scrubber.Start()
	}
}

// kick nudges a completely idle system so idleness-driven policies can
// begin even before any foreground request has been observed: if the
// device is still idle after the wait threshold, scrubbing starts. A
// second kick re-arms the first.
func (sys *System) kick() {
	sys.kickTimer.Arm(sys.Sim.Now() + sys.cfg.WaitThreshold)
}

func (sys *System) kickFire() {
	if sys.Queue.Idle() && !sys.Scrubber.Firing() {
		sys.Scrubber.Fire()
	}
}

// RunFor advances the simulation by d of virtual time. Cancelling ctx
// stops the event loop promptly (between events) and returns the
// context's error; the simulation is left paused at a consistent point
// and can be resumed by a later RunFor.
func (sys *System) RunFor(ctx context.Context, d time.Duration) error {
	return sys.Sim.RunUntilContext(ctx, sys.Sim.Now()+d)
}

// Report summarizes a campaign.
type Report struct {
	Policy        string
	Algorithm     string
	ScrubMBps     float64
	ScrubbedBytes int64 // exact byte total behind ScrubMBps
	PassProgress  float64
	Passes        int64
	LSEsFound     int64
	LSEsRepaired  int64
	Escalations   int64
	FgRequests    int64
	Collisions    int64
	CollisionRate float64
	// Events is the simulator's fired-event count behind this report:
	// exact, park-invariant (a restored clock keeps its fired total), and
	// the basis of fleet-level events/sec accounting.
	Events int64

	// Fault-injection lifecycle (zero unless built with WithFaults).
	LSEsInjected   int64
	LSEsDetected   int64
	LSEsRemapped   int64
	DetectionRatio float64
	MeanTTD        time.Duration
	// DetectionTime is the exact latency sum behind MeanTTD, carried so
	// fleet-level aggregation stays integer-exact (and therefore
	// independent of merge order and shard count).
	DetectionTime time.Duration
}

// String renders a one-line summary. Systems with fault injection get a
// second clause covering the LSE lifecycle.
func (r Report) String() string {
	s := fmt.Sprintf("%s/%s: %.2f MB/s scrubbed, pass %.1f%% (x%d), %d LSEs, collision rate %.4f",
		r.Policy, r.Algorithm, r.ScrubMBps, 100*r.PassProgress, r.Passes, r.LSEsFound, r.CollisionRate)
	if r.LSEsInjected > 0 {
		s += fmt.Sprintf("; faults: %d injected, %d detected (%.1f%%), %d remapped, mean TTD %v",
			r.LSEsInjected, r.LSEsDetected, 100*r.DetectionRatio, r.LSEsRemapped, r.MeanTTD)
	}
	return s
}

// Report builds a Report at the current virtual time.
func (sys *System) Report() Report {
	st := sys.Scrubber.Stats()
	qs := sys.Queue.Stats()
	fg := qs.Completed[blockdev.Foreground-1]
	r := Report{
		Policy:        sys.cfg.Policy.String(),
		Algorithm:     sys.Scrubber.Algorithm().Name(),
		ScrubMBps:     st.ThroughputMBps(sys.Sim.Now()),
		ScrubbedBytes: st.Bytes(),
		PassProgress:  sys.Scrubber.Algorithm().Progress(),
		Passes:        st.Passes,
		LSEsFound:     st.LSEsFound,
		LSEsRepaired:  st.LSEsRepaired,
		Escalations:   st.Escalations,
		FgRequests:    fg,
		Collisions:    qs.Collisions,
		Events:        int64(sys.Sim.Fired()),
	}
	if fg > 0 {
		r.CollisionRate = float64(qs.Collisions) / float64(fg)
	}
	if sys.Faults != nil {
		fs := sys.Faults.Stats()
		r.LSEsInjected = fs.Injected
		r.LSEsDetected = fs.Detected
		r.LSEsRemapped = fs.Remapped
		r.DetectionRatio = fs.DetectionRatio()
		r.MeanTTD = fs.MeanTimeToDetection()
		r.DetectionTime = fs.DetectionTime
	}
	return r
}

// AutoTune implements the paper's Section V-D recipe: from a workload
// trace and a slowdown goal, derive the throughput-maximizing scrub
// request size and wait threshold for this drive model. The source is
// reduced to its idle-gap sequence in one pass, so a multi-GB on-disk
// trace tunes in the memory of its gap list rather than its record
// count. The request-size sweep runs over workers goroutines (0 means
// GOMAXPROCS); the choice is identical for every worker count.
// Cancelling ctx abandons the sweep and returns the context's error.
func AutoTune(ctx context.Context, src trace.Source, m disk.Model, goal optimize.Goal, workers int) (optimize.Choice, error) {
	in, err := idlesim.InputFromSource(src)
	if err != nil {
		return optimize.Choice{}, err
	}
	return optimize.Tuner{Workers: par.Workers(workers)}.Tune(ctx, in, goal, idlesim.ScrubService(m))
}

// NewTuned builds a Waiting-policy System with parameters AutoTuned
// serially from src. Extra options are applied on top of the tuned
// configuration (e.g. WithFaults, WithObs); options that override the
// tuned policy, size or threshold win, matching the options contract.
func NewTuned(src trace.Source, m disk.Model, goal optimize.Goal, alg AlgorithmKind, opts ...Option) (*System, optimize.Choice, error) {
	choice, err := AutoTune(context.Background(), src, m, goal, 1)
	if err != nil {
		return nil, optimize.Choice{}, err
	}
	base := []Option{
		WithAlgorithm(alg),
		WithPolicy(PolicyWaiting),
		WithRequestBytes(choice.ReqSectors * disk.SectorSize),
		WithWaitThreshold(choice.Threshold),
	}
	sys, err := New(&m, append(base, opts...)...)
	if err != nil {
		return nil, optimize.Choice{}, err
	}
	return sys, choice, nil
}
