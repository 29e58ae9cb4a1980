package scrubd

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arima"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Sentinel errors of the engine API. The HTTP layer maps them onto
// typed 4xx responses; direct embedders branch on them with errors.Is.
var (
	// ErrBackpressure reports a full feed queue: the batch was partially
	// accepted (see IngestBatch's count) and the caller should retry the
	// rest after a backoff. The bounded queue never grows to absorb a
	// slow consumer.
	ErrBackpressure = errors.New("scrubd: feed queue full")
	// ErrUnknownDevice reports a decision query for a device that has
	// never appeared in the feed.
	ErrUnknownDevice = errors.New("scrubd: unknown device")
	// ErrTooManyDevices reports that the device table reached
	// Config.MaxDevices; records for new devices are rejected rather
	// than growing memory without bound.
	ErrTooManyDevices = errors.New("scrubd: device table full")
	// ErrClosed reports ingestion into a closed engine.
	ErrClosed = errors.New("scrubd: engine closed")
)

// Config parameterizes an Engine. The zero value selects the defaults
// documented per field.
type Config struct {
	// Shards is the number of device shards; feed application and
	// decision queries for one device serialize on its shard. Default 8.
	Shards int
	// QueueCap bounds the per-shard feed queue, in records. Default 65536.
	QueueCap int
	// WaitThreshold is the Waiting policy's t: once a device has been
	// idle this long, scrub. Default 500ms.
	WaitThreshold time.Duration
	// ARThreshold is the AR policy's c: when the fitted model predicts
	// an idle interval this long, scrub without waiting out the
	// threshold. Default 2s.
	ARThreshold time.Duration
	// MaxOrder bounds the AIC-selected AR order. Default 8.
	MaxOrder int
	// Decay is the per-observation forgetting factor of the online AR
	// fit. Default 0.999.
	Decay float64
	// RefitEvery is the number of observed gaps between AR refits of one
	// device. Default 64.
	RefitEvery int
	// MinGaps is the warmup: below this many observed gaps a device is
	// served by the pure Waiting rule. Default 16.
	MinGaps int
	// ScrubRate converts predicted remaining idle time into a request
	// size, in bytes per second of scrubbing the device sustains.
	// Default 64 MiB/s.
	ScrubRate int64
	// MinReqBytes / MaxReqBytes clamp issued request sizes.
	// Defaults 64 KiB / 8 MiB.
	MinReqBytes int64
	MaxReqBytes int64
	// MaxDevices caps the device table across all shards. Default 1<<20.
	MaxDevices int64
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Shards > 1024 {
		c.Shards = 1024
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 1 << 16
	}
	if c.WaitThreshold <= 0 {
		c.WaitThreshold = 500 * time.Millisecond
	}
	if c.ARThreshold <= 0 {
		c.ARThreshold = 2 * time.Second
	}
	if c.MaxOrder <= 0 {
		c.MaxOrder = 8
	}
	if c.Decay <= 0 {
		c.Decay = 0.999
	}
	if c.RefitEvery <= 0 {
		c.RefitEvery = 64
	}
	if c.MinGaps <= 0 {
		c.MinGaps = 16
	}
	if c.ScrubRate <= 0 {
		c.ScrubRate = 64 << 20
	}
	if c.MinReqBytes <= 0 {
		c.MinReqBytes = 64 << 10
	}
	if c.MaxReqBytes <= 0 {
		c.MaxReqBytes = 8 << 20
	}
	if c.MaxReqBytes < c.MinReqBytes {
		c.MaxReqBytes = c.MinReqBytes
	}
	if c.MaxDevices <= 0 {
		c.MaxDevices = 1 << 20
	}
	return c
}

// Record is one per-device I/O feed record: a foreground request
// arrival at AtUs microseconds (device-local clock, strictly increasing
// per device) moving Bytes bytes. Dev is borrowed from the caller's
// buffer; the engine copies it only when it first creates the device.
type Record struct {
	Dev   []byte
	AtUs  int64
	Bytes int64
}

// qrec is a queued, device-resolved feed record.
type qrec struct {
	dev   *device
	atUs  int64
	bytes int64
}

// device is one device's online state. All access is serialized by the
// owning shard's lock.
type device struct {
	name     string
	lastAtUs int64 // most recent arrival, µs; 0 before the first record
	gaps     int64 // inter-arrival gaps observed
	ar       *arima.OnlineAR
	idle     *stats.OnlineIdle
}

// shard owns a stripe of the device table, its slice of the bounded
// feed queue, and a private obs registry (registries are
// single-threaded; the shard lock is what serializes them).
type shard struct {
	mu       sync.Mutex
	cond     *sync.Cond // queue became non-empty, or stopping
	stopping bool

	devices map[string]*device
	q       []qrec // ring buffer
	head    int
	count   int

	reg *obs.Registry

	// Instruments, resolved once at construction (obsguard: no registry
	// lookups on the hot path).
	insRecords   *obs.Counter
	insStale     *obs.Counter
	insGaps      *obs.Counter
	insRefits    *obs.Counter
	insDevNew    *obs.Counter
	insFireThr   *obs.Counter
	insFirePred  *obs.Counter
	insHoldWarm  *obs.Counter
	insHoldAR    *obs.Counter
	hIdleAtQuery *obs.Histogram
	hPredGap     *obs.Histogram
}

func newShard(queueCap int) *shard {
	s := &shard{
		devices: make(map[string]*device),
		q:       make([]qrec, queueCap),
		reg:     obs.New(),
	}
	s.cond = sync.NewCond(&s.mu)
	s.insRecords = s.reg.Counter("scrubd.ingest.records")
	s.insStale = s.reg.Counter("scrubd.ingest.stale_dropped")
	s.insGaps = s.reg.Counter("scrubd.ingest.gaps")
	s.insRefits = s.reg.Counter("scrubd.ingest.refits")
	// Deliberately no gauges here: a gauge's max depends on when it was
	// sampled (queue depth, shard occupancy), which would break the
	// byte-identical-snapshot guarantee across batch splits and shard
	// counts. Everything in the shard registry is record-granular.
	s.insDevNew = s.reg.Counter("scrubd.devices.created")
	s.insFireThr = s.reg.Counter("scrubd.decide.fire.threshold")
	s.insFirePred = s.reg.Counter("scrubd.decide.fire.predicted")
	s.insHoldWarm = s.reg.Counter("scrubd.decide.hold.warming")
	s.insHoldAR = s.reg.Counter("scrubd.decide.hold.ar")
	s.hIdleAtQuery = s.reg.Histogram("scrubd.decide.idle_at_query")
	s.hPredGap = s.reg.Histogram("scrubd.decide.predicted_gap")
	return s
}

// Engine is the scrub-decision service core: sharded device table,
// bounded feed queues, online statistics, deterministic decisions.
type Engine struct {
	cfg     Config
	shards  []*shard
	devices atomic.Int64 // across shards, vs cfg.MaxDevices
	closed  atomic.Bool
	started atomic.Bool
	wg      sync.WaitGroup

	// pending counts accepted-but-unapplied records for Sync. Guarded by
	// pendMu; pendCond broadcasts when it reaches zero.
	pendMu   sync.Mutex
	pendCond *sync.Cond
	pending  int64

	// ckptMu serialises CheckpointFile so renames land in snapshot
	// order; fs is the file system it writes through.
	ckptMu sync.Mutex
	fs     durable.FS
}

// NewEngine builds an engine. Appliers do not run until Start; until
// then queued records are applied manually with ApplyQueued (the
// deterministic single-threaded mode the replay tests use).
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, shards: make([]*shard, cfg.Shards), fs: durable.OS}
	for i := range e.shards {
		e.shards[i] = newShard(cfg.QueueCap)
	}
	e.pendCond = sync.NewCond(&e.pendMu)
	return e
}

// Config returns the engine's effective (default-filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Start launches one applier goroutine per shard. Idempotent.
func (e *Engine) Start() {
	if e.closed.Load() || !e.started.CompareAndSwap(false, true) {
		return
	}
	for _, s := range e.shards {
		e.wg.Add(1)
		go e.applier(s) //scrublint:allow detorder daemon boundary: appliers run on wall-clock ingest, not the virtual clock
	}
}

// Close stops ingestion, drains the queues through the appliers (when
// started) and waits for them to exit. Decisions remain answerable
// after Close; further feeding returns ErrClosed.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	for _, s := range e.shards {
		s.mu.Lock()
		s.stopping = true
		s.cond.Broadcast()
		s.mu.Unlock()
	}
	e.wg.Wait()
	// Whatever the appliers did not drain (engine never started, or
	// records raced in before the stop flag) is applied here so Sync
	// callers are released and state reflects every accepted record.
	e.ApplyQueued()
}

// shardIndex hashes a device name onto a shard (FNV-1a 32-bit).
//
//scrub:hotpath
func shardIndex(dev []byte, n int) int {
	h := uint32(2166136261)
	for _, b := range dev {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(h % uint32(n))
}

// shardIndexString is shardIndex over a string (same hash, no
// conversion allocation).
//
//scrub:hotpath
func shardIndexString(dev string, n int) int {
	h := uint32(2166136261)
	for i := 0; i < len(dev); i++ {
		h = (h ^ uint32(dev[i])) * 16777619
	}
	return int(h % uint32(n))
}

// pendAdd moves the accepted-but-unapplied record count by delta,
// waking Sync waiters when it reaches zero.
func (e *Engine) pendAdd(delta int64) {
	e.pendMu.Lock()
	e.pending += delta
	if e.pending == 0 {
		e.pendCond.Broadcast()
	}
	e.pendMu.Unlock()
}

// IngestBatch validates, resolves and enqueues a batch of feed records,
// returning how many were accepted. On a full shard queue it stops and
// returns ErrBackpressure: records already enqueued stay accepted
// (application is per-device idempotent — a retried record is dropped
// as stale by the monotonic-timestamp check), the rest are the caller's
// to retry. Record order is preserved per device.
func (e *Engine) IngestBatch(recs []Record) (int, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	// Count first so Sync can never observe "drained" between a record
	// becoming visible and its accounting.
	e.pendAdd(int64(len(recs)))
	accepted := 0
	var err error
	nsh := len(e.shards)
	// One pass per shard keeps each shard lock acquired once per batch
	// without allocating per-shard sublists.
	for si := 0; si < nsh && err == nil; si++ {
		s := e.shards[si]
		locked := false
		for i := range recs {
			r := &recs[i]
			if len(r.Dev) == 0 || r.AtUs <= 0 || r.Bytes < 0 {
				err = errRecordInvalid
				break
			}
			if shardIndex(r.Dev, nsh) != si {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			if s.count == len(s.q) {
				err = ErrBackpressure
				break
			}
			d := s.devices[string(r.Dev)]
			if d == nil {
				if e.devices.Load() >= e.cfg.MaxDevices {
					err = ErrTooManyDevices
					break
				}
				d = &device{
					name: string(r.Dev),
					ar:   arima.NewOnlineAR(e.cfg.MaxOrder, e.cfg.Decay),
					idle: stats.NewOnlineIdle(nil),
				}
				s.devices[d.name] = d
				e.devices.Add(1)
				s.insDevNew.Inc()
			}
			s.q[(s.head+s.count)%len(s.q)] = qrec{dev: d, atUs: r.AtUs, bytes: r.Bytes}
			s.count++
			accepted++
		}
		if locked {
			s.cond.Signal()
			s.mu.Unlock()
		}
	}
	e.pendAdd(int64(accepted - len(recs)))
	return accepted, err
}

// errRecordInvalid rejects records that bypass the HTTP decoders with
// an empty device name or non-positive timestamp.
var errRecordInvalid = errors.New("scrubd: invalid feed record")

// applyChunk bounds how many records an applier folds in per lock hold,
// so decision queries interleave with heavy feeding.
const applyChunk = 256

// applier drains one shard's queue until Close.
func (e *Engine) applier(s *shard) {
	defer e.wg.Done()
	for {
		s.mu.Lock()
		for s.count == 0 && !s.stopping {
			s.cond.Wait()
		}
		if s.count == 0 {
			s.mu.Unlock()
			return
		}
		n := e.applyLocked(s, applyChunk)
		s.mu.Unlock()
		e.pendAdd(int64(-n))
	}
}

// ApplyQueued synchronously drains every shard queue on the caller's
// goroutine and returns the number of records applied. This is the
// deterministic manual mode: tests (and single-threaded replays) use
// NewEngine + IngestBatch + ApplyQueued and never start the appliers.
func (e *Engine) ApplyQueued() int {
	total := 0
	for _, s := range e.shards {
		s.mu.Lock()
		for s.count > 0 {
			total += e.applyLocked(s, s.count)
		}
		s.mu.Unlock()
	}
	if total > 0 {
		e.pendAdd(int64(-total))
	}
	return total
}

// applyLocked folds up to max queued records of s into device state.
// Caller holds s.mu.
//
//scrub:hotpath
func (e *Engine) applyLocked(s *shard, max int) int {
	n := s.count
	if n > max {
		n = max
	}
	for i := 0; i < n; i++ {
		r := &s.q[s.head]
		s.head++
		if s.head == len(s.q) {
			s.head = 0
		}
		s.count--
		d := r.dev
		r.dev = nil // no stale device pointer keeps a deleted device alive
		s.insRecords.Inc()
		if d.lastAtUs == 0 {
			d.lastAtUs = r.atUs
			continue
		}
		if r.atUs <= d.lastAtUs {
			// Replayed or reordered record: the per-device clock only
			// moves forward, which is also what makes backpressure
			// retries of a partially accepted batch idempotent.
			s.insStale.Inc()
			continue
		}
		gapUs := r.atUs - d.lastAtUs
		d.lastAtUs = r.atUs
		d.gaps++
		d.idle.Observe(time.Duration(gapUs) * time.Microsecond)
		d.ar.Observe(float64(gapUs) / 1e6)
		s.insGaps.Inc()
		if d.gaps%int64(e.cfg.RefitEvery) == 0 {
			d.ar.Refit()
			s.insRefits.Inc()
		}
	}
	return n
}

// waitDrained blocks until every accepted record has been applied.
func (e *Engine) waitDrained() {
	e.pendMu.Lock()
	for e.pending != 0 {
		e.pendCond.Wait()
	}
	e.pendMu.Unlock()
}

// Sync blocks until the feed queues are drained or ctx is cancelled.
// With the appliers running this bounds feed-to-decision staleness;
// in manual mode call ApplyQueued instead.
func (e *Engine) Sync(ctx context.Context) error {
	done := make(chan struct{})
	go func() { //scrublint:allow detorder daemon boundary: Sync bridges caller wall-clock ctx to queue drain
		e.waitDrained()
		close(done)
	}()
	//scrublint:allow detorder daemon boundary: ctx cancellation is inherently wall-clock
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Pending returns the number of accepted-but-unapplied records.
func (e *Engine) Pending() int64 {
	e.pendMu.Lock()
	defer e.pendMu.Unlock()
	return e.pending
}

// Devices returns the device-table size.
func (e *Engine) Devices() int64 { return e.devices.Load() }

// ObsSnapshot merges the per-shard registries into one deterministic
// snapshot: the same feed produces byte-identical snapshots at any
// shard count or batch split, because every instrument is
// record-granular and merging is integer-exact.
func (e *Engine) ObsSnapshot() (obs.Snapshot, error) {
	snaps := make([]obs.Snapshot, len(e.shards))
	for i, s := range e.shards {
		s.mu.Lock()
		snaps[i] = s.reg.Snapshot()
		s.mu.Unlock()
	}
	return obs.MergeSnapshots(snaps...)
}
