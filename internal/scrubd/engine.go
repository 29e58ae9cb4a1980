package scrubd

import (
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
	// ErrBackpressure is never returned. IngestBatch applies each batch
	// inside the call, so there is no feed queue to fill; the sentinel
	// stays for callers that still test for it.
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

// device is one device's online state. All access is serialized by the
// owning shard's lock.
type device struct {
	name     string
	lastAtUs int64 // most recent arrival, µs; 0 before the first record
	gaps     int64 // inter-arrival gaps observed
	ar       *arima.OnlineAR
	idle     *stats.OnlineIdle
}

// shard owns a stripe of the device table and a private obs registry
// (registries are single-threaded; the shard lock is what serializes
// them).
type shard struct {
	mu      sync.Mutex
	devices map[string]*device
	reg     *obs.Registry

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

func newShard() *shard {
	s := &shard{devices: make(map[string]*device), reg: obs.New()}
	s.insRecords = s.reg.Counter("scrubd.ingest.records")
	s.insStale = s.reg.Counter("scrubd.ingest.stale_dropped")
	s.insGaps = s.reg.Counter("scrubd.ingest.gaps")
	s.insRefits = s.reg.Counter("scrubd.ingest.refits")
	// Deliberately no gauges here: a gauge's max depends on when it was
	// sampled (shard occupancy), which would break the
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
// online statistics, deterministic decisions.
type Engine struct {
	cfg     Config
	shards  []*shard
	devices atomic.Int64 // across shards, vs cfg.MaxDevices
	closed  atomic.Bool

	// ckptMu serialises CheckpointFile so renames land in snapshot
	// order; fs is the file system it writes through.
	ckptMu sync.Mutex
	fs     durable.FS
}

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{cfg: cfg, shards: make([]*shard, cfg.Shards), fs: durable.OS}
	for i := range e.shards {
		e.shards[i] = newShard()
	}
	return e
}

// Config returns the engine's effective (default-filled) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Close stops ingestion: further feeding returns ErrClosed. Decisions
// remain answerable after Close.
func (e *Engine) Close() { e.closed.Store(true) }

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

// IngestBatch validates a batch of feed records and folds each into its
// device's state before returning. A batch with an invalid record
// applies nothing. Otherwise it returns how many records were applied:
// all of them, unless the device table is full (ErrTooManyDevices), in
// which case the records of devices already known were still applied.
// Re-sending an applied record is harmless: the per-device clock only
// moves forward, so it is counted as stale and dropped. Record order is
// preserved per device.
func (e *Engine) IngestBatch(recs []Record) (int, error) {
	if e.closed.Load() {
		return 0, ErrClosed
	}
	for i := range recs {
		r := &recs[i]
		if len(r.Dev) == 0 || r.AtUs <= 0 || r.Bytes < 0 {
			return 0, errRecordInvalid
		}
	}
	applied := 0
	var err error
	nsh := len(e.shards)
	// One pass per shard keeps each shard lock acquired once per batch
	// without allocating per-shard sublists.
	for si, s := range e.shards {
		locked := false
		for i := range recs {
			r := &recs[i]
			if shardIndex(r.Dev, nsh) != si {
				continue
			}
			if !locked {
				s.mu.Lock()
				locked = true
			}
			d := s.devices[string(r.Dev)]
			if d == nil {
				if e.devices.Load() >= e.cfg.MaxDevices {
					err = ErrTooManyDevices
					continue
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
			e.applyLocked(s, d, r.AtUs)
			applied++
		}
		if locked {
			s.mu.Unlock()
		}
	}
	return applied, err
}

// errRecordInvalid rejects records that bypass the HTTP decoders with
// an empty device name or non-positive timestamp.
var errRecordInvalid = errors.New("scrubd: invalid feed record")

// ApplyQueued does nothing and returns 0: IngestBatch applies every
// record before it returns, so nothing is ever left to apply. It stays
// for callers written against the queued engine.
func (e *Engine) ApplyQueued() int { return 0 }

// applyLocked folds one arrival at atUs into d. Caller holds s.mu.
//
//scrub:hotpath
func (e *Engine) applyLocked(s *shard, d *device, atUs int64) {
	s.insRecords.Inc()
	if d.lastAtUs == 0 {
		d.lastAtUs = atUs
		return
	}
	if atUs <= d.lastAtUs {
		// Replayed or reordered record: the per-device clock only moves
		// forward, which is also what makes re-sending a batch
		// idempotent.
		s.insStale.Inc()
		return
	}
	gapUs := atUs - d.lastAtUs
	d.lastAtUs = atUs
	d.gaps++
	d.idle.Observe(time.Duration(gapUs) * time.Microsecond)
	d.ar.Observe(float64(gapUs) / 1e6)
	s.insGaps.Inc()
	if d.gaps%int64(e.cfg.RefitEvery) == 0 {
		d.ar.Refit()
		s.insRefits.Inc()
	}
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
