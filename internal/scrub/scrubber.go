package scrub

import (
	"fmt"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Mode selects the implementation level of the scrubber, the comparison of
// the paper's Section III-C.
type Mode int

const (
	// KernelMode is the paper's framework: scrub VERIFYs are disguised as
	// regular read requests inside the block layer, so the elevator can
	// sort, merge and prioritize them.
	KernelMode Mode = iota + 1
	// UserMode issues VERIFYs through ioctl passthrough: each request is
	// a soft barrier — unsortable, unmergeable, priority-blind — and pays
	// a user/kernel turnaround before the next can be issued.
	UserMode
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case KernelMode:
		return "kernel"
	case UserMode:
		return "user"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultUserTurnaround is the modelled ioctl round-trip cost between a
// user-level scrubber observing a completion and its next VERIFY reaching
// the block layer.
const DefaultUserTurnaround = 150 * time.Microsecond

// ScrubTag is the scheduler tag (process identity) of scrubber threads.
const ScrubTag = 1

// SizeFunc returns the size in sectors of the k-th scrub request since
// firing began, fired at sinceFire after the first request of this burst.
// Adaptive request-size strategies (Section V-C) plug in here.
type SizeFunc func(k int, sinceFire time.Duration) int64

// FixedSize returns a SizeFunc that always uses n sectors.
func FixedSize(n int64) SizeFunc {
	return func(int, time.Duration) int64 { return n }
}

// Config parameterizes a Scrubber.
type Config struct {
	// Algorithm decides what to verify next. Required.
	Algorithm Algorithm
	// Mode selects kernel- or user-level issuing. Default KernelMode.
	Mode Mode
	// Class is the I/O priority class for kernel-mode requests. Default
	// ClassBE ("Default priority" in the paper's figures).
	Class blockdev.Class
	// Delay inserts a fixed pause between scrub requests (the paper's
	// "Def. 16ms" style configurations). Zero means back-to-back.
	Delay time.Duration
	// Size sets the per-request size. Default: 128 sectors (64 KB).
	Size SizeFunc
	// UserTurnaround overrides the modelled ioctl round-trip in UserMode.
	UserTurnaround time.Duration
	// AutoRepair rewrites sectors whose VERIFY reported a latent error
	// (triggering the drive's sector reallocation), the full
	// detect-and-correct loop of a production scrubber. Repair writes
	// are issued at the scrubber's priority before the next verify.
	AutoRepair bool
	// Escalate enables the Oprea–Juels region re-scrub: a detected latent
	// error immediately queues a re-verify of the whole region around it
	// (LSEs cluster spatially, so one error predicts neighbours). Region
	// bounds come from the Algorithm when it implements Regioner;
	// otherwise a DefaultEscalationSectors window centred on the error is
	// used. Each region escalates at most once per pass.
	Escalate bool
}

// DefaultEscalationSectors is the re-verify window around a detected LSE
// when the algorithm has no region structure (1 MB).
const DefaultEscalationSectors = 2048

// Stats aggregates scrubber progress.
type Stats struct {
	Requests       int64
	SectorsDone    int64
	Passes         int64
	LSEsFound      int64
	LSEsRepaired   int64
	Escalations    int64         // region re-scrubs triggered by detections
	RescrubSectors int64         // sectors verified by escalated re-scrubs
	ActiveTime     time.Duration // total time with a scrub request in flight
	FirstFired     time.Duration
	LastCompleted  time.Duration
}

// Bytes returns the total bytes scrubbed.
func (s Stats) Bytes() int64 { return s.SectorsDone * disk.SectorSize }

// ThroughputMBps returns scrubbed MB/s over the wall-clock span from first
// fire to the given time.
func (s Stats) ThroughputMBps(now time.Duration) float64 {
	span := now - s.FirstFired
	if s.Requests == 0 || span <= 0 {
		return 0
	}
	return float64(s.Bytes()) / 1e6 / span.Seconds()
}

// Scrubber is one scrubbing thread bound to a device queue. It is driven
// either free-running (Start) or by a scheduling policy (Fire/Hold). Its
// live state is its State, st; every other field is wiring, a callback,
// an instrument or one of the two parts a snapshot records in its own
// form (the delay timer and the escalated-region set).
type Scrubber struct {
	st State

	sim *sim.Simulator  //scrublint:transient wiring, supplied at construction
	q   *blockdev.Queue //scrublint:transient wiring, supplied at construction
	cfg Config          //scrublint:transient configuration, supplied at construction

	delay     sim.Timer      // delayed reissue, recorded as HasPending/PendingAt/PendingSeq
	escalated map[int64]bool //scrublint:transient regions escalated this pass, recorded sorted as Escalated

	// onVerify/onRescrub/onRepair are the completion callbacks of pooled
	// requests, built once so the issue/completion loop allocates no
	// closures.
	onVerify  func(*blockdev.Request)
	onRescrub func(*blockdev.Request)
	onRepair  func(*blockdev.Request)

	// OnLSE is called for each latent sector error a verify detects.
	OnLSE func(lba int64)
	// OnRepair is called when an AutoRepair write for lba completes (the
	// sector is remapped).
	OnRepair func(lba int64)
	// OnPass is called at the end of each full pass.
	OnPass func(pass int64)

	// Observability instruments (nil when uninstrumented); a nil obsReq
	// short-circuits the per-completion hooks with one branch.
	obsReq      *obs.Counter
	obsSectors  *obs.Counter
	obsPasses   *obs.Counter
	obsFound    *obs.Counter
	obsRepaired *obs.Counter
	obsFires    *obs.Counter
	obsHolds    *obs.Counter
	obsEscal    *obs.Counter
	obsSvc      *obs.Histogram // per-request service time
	obsTrace    *obs.Ring
}

// New builds a Scrubber over a queue.
func New(s *sim.Simulator, q *blockdev.Queue, cfg Config) (*Scrubber, error) {
	if cfg.Algorithm == nil {
		return nil, fmt.Errorf("scrub: config needs an Algorithm")
	}
	if cfg.Mode == 0 {
		cfg.Mode = KernelMode
	}
	if cfg.Class == 0 {
		cfg.Class = blockdev.ClassBE
	}
	if cfg.Size == nil {
		cfg.Size = FixedSize(128)
	}
	if cfg.UserTurnaround == 0 {
		cfg.UserTurnaround = DefaultUserTurnaround
	}
	sc := &Scrubber{sim: s, q: q, cfg: cfg}
	sc.onVerify = sc.completed
	sc.onRescrub = func(r *blockdev.Request) {
		sc.st.Stats.RescrubSectors += r.Sectors
		sc.completed(r)
	}
	sc.onRepair = sc.repairDone
	sc.delay.Init(s, sc.issue)
	return sc, nil
}

// Stats returns a copy of the scrubber's counters.
func (sc *Scrubber) Stats() Stats { return sc.st.Stats }

// Instrument attaches the scrubber to a metrics registry: progress
// counters (scrub.requests, scrub.sectors, scrub.passes, scrub.lses_found,
// scrub.lses_repaired), policy-visible fire/hold transition counters, a
// per-request service-time histogram (dispatch to completion, the
// slowdown the scrubber inflicts on itself) and "fire"/"hold"/"complete"
// trace events. A nil reg is a no-op.
func (sc *Scrubber) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sc.obsReq = reg.Counter("scrub.requests")
	sc.obsSectors = reg.Counter("scrub.sectors")
	sc.obsPasses = reg.Counter("scrub.passes")
	sc.obsFound = reg.Counter("scrub.lses_found")
	sc.obsRepaired = reg.Counter("scrub.lses_repaired")
	sc.obsFires = reg.Counter("scrub.fires")
	sc.obsHolds = reg.Counter("scrub.holds")
	sc.obsEscal = reg.Counter("scrub.escalations")
	sc.obsSvc = reg.Histogram("scrub.service_time")
	sc.obsTrace = reg.Trace()
}

// Algorithm returns the configured algorithm.
func (sc *Scrubber) Algorithm() Algorithm { return sc.cfg.Algorithm }

// Firing reports whether the scrubber is currently issuing requests.
func (sc *Scrubber) Firing() bool { return sc.st.Firing }

// Start begins free-running scrubbing (Sections III-IV): requests issue
// back-to-back, spaced by the configured Delay, relying on the I/O
// scheduler alone to limit foreground impact.
func (sc *Scrubber) Start() { sc.Fire() }

// Fire begins (or resumes) issuing scrub requests. Policies call this at
// the start of an exploitable idle interval.
func (sc *Scrubber) Fire() {
	if sc.st.Firing {
		return
	}
	sc.st.Firing = true
	sc.st.FireStart = sc.sim.Now()
	sc.st.FireCount = 0
	sc.obsFires.Inc()
	sc.obsTrace.Emit(sc.sim.Now(), "scrub", "fire", 0, 0)
	if sc.st.Stats.Requests == 0 {
		sc.st.Stats.FirstFired = sc.sim.Now()
	}
	if !sc.st.Inflight && !sc.delay.Armed() {
		sc.issue()
	}
}

// Hold stops issuing after the in-flight request (if any) completes.
// Policies call this when a foreground request arrives.
func (sc *Scrubber) Hold() {
	if sc.st.Firing {
		sc.obsHolds.Inc()
		sc.obsTrace.Emit(sc.sim.Now(), "scrub", "hold", 0, 0)
	}
	sc.st.Firing = false
	sc.delay.Disarm()
}

// issue submits the next scrub request. Escalated re-scrub extents are
// served before the regular algorithm stream: a fresh detection predicts
// clustered neighbours, so probing them now minimizes their latent time.
//
//scrub:hotpath
func (sc *Scrubber) issue() {
	if !sc.st.Firing || sc.st.Inflight {
		return
	}
	size := sc.cfg.Size(sc.st.FireCount, sc.sim.Now()-sc.st.FireStart)
	if size <= 0 {
		size = 1
	}
	if lba, n, ok := sc.nextRescrub(size); ok {
		sc.submitVerify(lba, n, true)
		return
	}
	lba, n, ok := sc.cfg.Algorithm.Next(size)
	if !ok {
		sc.st.Stats.Passes++
		sc.obsPasses.Inc()
		if sc.OnPass != nil {
			sc.OnPass(sc.st.Stats.Passes)
		}
		sc.cfg.Algorithm.Reset()
		clear(sc.escalated) // regions may escalate again next pass
		lba, n, ok = sc.cfg.Algorithm.Next(size)
		if !ok {
			// Degenerate algorithm; stop rather than spin.
			sc.st.Firing = false
			return
		}
	}
	sc.submitVerify(lba, n, false)
}

// nextRescrub carves at most max sectors off the pending escalation
// queue.
//
//scrub:hotpath
func (sc *Scrubber) nextRescrub(max int64) (int64, int64, bool) {
	for len(sc.st.Rescrub) > 0 {
		e := &sc.st.Rescrub[0]
		if e.Sectors <= 0 {
			sc.st.Rescrub = sc.st.Rescrub[1:]
			continue
		}
		n := e.Sectors
		if n > max {
			n = max
		}
		lba := e.LBA
		e.LBA += n
		e.Sectors -= n
		return lba, n, true
	}
	return 0, 0, false
}

// submitVerify sends one VERIFY to the block layer.
//
//scrub:hotpath
func (sc *Scrubber) submitVerify(lba, n int64, rescrub bool) {
	sc.st.FireCount++
	req := sc.q.GetRequest()
	req.Op = disk.OpVerify
	req.LBA = lba
	req.Sectors = n
	req.Class = sc.cfg.Class
	req.Origin = blockdev.Scrub
	req.Tag = ScrubTag
	req.Barrier = sc.cfg.Mode == UserMode
	req.OnComplete = sc.onVerify
	if rescrub {
		req.OnComplete = sc.onRescrub
	}
	sc.st.Inflight = true
	sc.st.InflightRescrub = rescrub
	sc.q.Submit(req)
}

// completed handles a scrub request completion.
//
//scrub:hotpath
func (sc *Scrubber) completed(r *blockdev.Request) {
	sc.st.Inflight = false
	sc.st.Stats.Requests++
	sc.st.Stats.SectorsDone += r.Sectors
	sc.st.Stats.ActiveTime += r.Done - r.Dispatch
	sc.st.Stats.LastCompleted = r.Done
	sc.st.Stats.LSEsFound += int64(len(r.LSEs))
	if sc.obsReq != nil {
		sc.obsReq.Inc()
		sc.obsSectors.Add(r.Sectors)
		sc.obsFound.Add(int64(len(r.LSEs)))
		sc.obsSvc.Observe(r.Done - r.Dispatch)
		sc.obsTrace.Emit(r.Done, "scrub", "complete", r.LBA, r.Sectors)
	}
	if sc.OnLSE != nil {
		for _, lba := range r.LSEs {
			sc.OnLSE(lba)
		}
	}
	if sc.cfg.Escalate && len(r.LSEs) > 0 {
		sc.escalate(r.LSEs)
	}
	if sc.cfg.AutoRepair && len(r.LSEs) > 0 {
		sc.repair(r.LSEs)
		return
	}
	if !sc.st.Firing {
		return
	}
	delay := sc.cfg.Delay
	if sc.cfg.Mode == UserMode {
		delay += sc.cfg.UserTurnaround
	}
	if delay <= 0 {
		sc.issue()
		return
	}
	sc.delay.Arm(sc.sim.Now() + delay)
}

// escalate queues a region re-scrub around each fresh detection. A
// region escalates at most once per pass, so an unrepaired error cannot
// re-queue its own region from within the re-scrub it triggered.
func (sc *Scrubber) escalate(lses []int64) {
	for _, lba := range lses {
		start, n := sc.regionAround(lba)
		if n <= 0 || sc.escalated[start] {
			continue
		}
		if sc.escalated == nil {
			sc.escalated = make(map[int64]bool)
		}
		sc.escalated[start] = true
		sc.st.Rescrub = append(sc.st.Rescrub, Extent{LBA: start, Sectors: n})
		sc.st.Stats.Escalations++
		sc.obsEscal.Inc()
		sc.obsTrace.Emit(sc.sim.Now(), "scrub", "escalate", start, n)
	}
}

// regionAround returns the re-scrub extent for a detection: the
// algorithm's region when it has one, else a fixed window centred on the
// error, clamped to the disk.
func (sc *Scrubber) regionAround(lba int64) (int64, int64) {
	if rg, ok := sc.cfg.Algorithm.(Regioner); ok {
		return rg.RegionOf(lba)
	}
	total := sc.q.Disk().Sectors()
	start := lba - DefaultEscalationSectors/2
	if start < 0 {
		start = 0
	}
	end := start + DefaultEscalationSectors
	if end > total {
		end = total
	}
	return start, end - start
}

// repair rewrites the bad sectors one write per error, then resumes the
// scrub stream. In a real deployment the rewrite carries data rebuilt
// from redundancy; here the write itself triggers the reallocation.
// Outstanding writes are counted in repairsLeft and each completion runs
// the prebuilt onRepair — the repaired LBA travels in the request itself
// — so no per-batch closure exists and a mid-repair member can be
// snapshotted.
func (sc *Scrubber) repair(lses []int64) {
	sc.st.RepairsLeft += len(lses)
	for _, lba := range lses {
		req := sc.q.GetRequest()
		req.Op = disk.OpWrite
		req.LBA = lba
		req.Sectors = 1
		req.Class = sc.cfg.Class
		req.Origin = blockdev.Scrub
		req.Tag = ScrubTag
		req.Barrier = sc.cfg.Mode == UserMode
		req.OnComplete = sc.onRepair
		sc.q.Submit(req)
	}
}

// repairDone handles one AutoRepair write completion. A write the
// elevator merged into another repair write completes through the same
// path (the block layer runs OnComplete for absorbed requests too), so
// each planted repair decrements exactly once.
func (sc *Scrubber) repairDone(r *blockdev.Request) {
	sc.st.Stats.LSEsRepaired++
	sc.obsRepaired.Inc()
	if sc.OnRepair != nil {
		sc.OnRepair(r.LBA)
	}
	sc.st.RepairsLeft--
	if sc.st.RepairsLeft == 0 && sc.st.Firing {
		sc.issue()
	}
}

// SetSize replaces the per-request size function at runtime (online
// re-tuning). The change takes effect from the next issued request.
func (sc *Scrubber) SetSize(sectors int64) {
	if sectors < 1 {
		sectors = 1
	}
	sc.cfg.Size = FixedSize(sectors)
}
