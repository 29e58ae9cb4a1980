package disk

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
)

// Op is a disk command opcode.
type Op int

const (
	// OpRead transfers data from the disk to the host.
	OpRead Op = iota + 1
	// OpWrite transfers data from the host to the disk.
	OpWrite
	// OpVerify checks data on the medium without transferring it: the
	// SCSI/ATA VERIFY command scrubbers are built on.
	OpVerify
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpVerify:
		return "verify"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Request describes one disk command.
type Request struct {
	Op      Op
	LBA     int64 // starting sector
	Sectors int64 // length in sectors
	// BypassCache forces the mechanical path even on a cache hit,
	// modelling FUA-style reads.
	BypassCache bool
}

// Bytes returns the request length in bytes.
func (r Request) Bytes() int64 { return r.Sectors * SectorSize }

// Result reports the outcome of one serviced command.
type Result struct {
	// Start is when the command was accepted (the submission time).
	Start time.Duration
	// Done is when completion reached the host.
	Done time.Duration
	// CacheHit reports whether the command was served from the on-disk
	// cache without touching the medium.
	CacheHit bool
	// LSEs lists the latent-sector-error LBAs detected by a medium access
	// covering them (empty for cache hits: a cached VERIFY cannot detect
	// an LSE, one more reason the ATA behaviour is broken).
	LSEs []int64
}

// Latency returns the request's service time.
func (r Result) Latency() time.Duration { return r.Done - r.Start }

// Disk is a single simulated drive. It services one command at a time;
// queueing is the block layer's job (package blockdev). Disk is not safe
// for concurrent use; the simulation is single-threaded by design.
type Disk struct {
	st State // live state; the cache's contents live in cache

	model Model     //scrublint:transient construction parameter, supplied at construction
	geo   *geometry //scrublint:transient immutable geometry, rebuilt from the per-model cache
	cache *cache    //scrublint:transient indexed segment cache, recorded as CacheClock/CacheSegs by SaveState

	// Observability instruments (nil when uninstrumented; every use is a
	// nil-safe single-branch no-op then). A nil obsHit short-circuits the
	// whole block in Service with one branch — the uninstrumented service
	// path is the single hottest loop in the repository.
	obsSvc   [3]*obs.Histogram // per-op service time by Op-1
	obsHit   *obs.Counter
	obsMiss  *obs.Counter
	obsTrace *obs.Ring
}

// New constructs a Disk from a model. Geometry is looked up in a
// process-wide per-Model cache: it is immutable after construction and
// O(cylinders) to build (megabytes for enterprise models), so sharing it
// is what makes hydrating fleet members cheap.
func New(m Model) (*Disk, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Disk{
		st:    State{CacheEnabled: true},
		model: m,
		geo:   geometryFor(m),
		cache: newCache(&m),
	}, nil
}

// MustNew is New for the known-good catalog models; it panics on an
// invalid model and is intended for tests and examples.
func MustNew(m Model) *Disk {
	d, err := New(m)
	if err != nil {
		panic(err)
	}
	return d
}

// Model returns the drive's model parameters.
func (d *Disk) Model() Model { return d.model }

// Sectors returns the addressable sector count.
func (d *Disk) Sectors() int64 { return d.geo.sectors() }

// Capacity returns the addressable capacity in bytes.
func (d *Disk) Capacity() int64 { return d.Sectors() * SectorSize }

// SetCacheEnabled toggles the on-disk cache, as the paper does for Fig. 1.
// Disabling also drops current contents.
func (d *Disk) SetCacheEnabled(on bool) {
	d.st.CacheEnabled = on
	if !on {
		d.cache.reset()
	}
}

// CacheEnabled reports whether the on-disk cache is active.
func (d *Disk) CacheEnabled() bool { return d.st.CacheEnabled }

// InjectLSE marks a sector as a latent sector error. Media accesses
// covering it will report it.
func (d *Disk) InjectLSE(lba int64) {
	i := sort.Search(len(d.st.LSEs), func(i int) bool { return d.st.LSEs[i] >= lba })
	if i < len(d.st.LSEs) && d.st.LSEs[i] == lba {
		return
	}
	d.st.LSEs = append(d.st.LSEs, 0)
	copy(d.st.LSEs[i+1:], d.st.LSEs[i:])
	d.st.LSEs[i] = lba
}

// RepairLSE clears an injected error (e.g. after sector reallocation).
func (d *Disk) RepairLSE(lba int64) {
	i := sort.Search(len(d.st.LSEs), func(i int) bool { return d.st.LSEs[i] >= lba })
	if i < len(d.st.LSEs) && d.st.LSEs[i] == lba {
		d.st.LSEs = append(d.st.LSEs[:i], d.st.LSEs[i+1:]...)
	}
}

// LSECount returns the number of outstanding injected errors.
func (d *Disk) LSECount() int { return len(d.st.LSEs) }

// Stats reports serviced command counts.
func (d *Disk) Stats() (served, mediaOps, cacheHits int64) {
	return d.st.Served, d.st.MediaOps, d.st.CacheHits
}

// Instrument attaches the drive to a metrics registry: per-op service
// time histograms (disk.service_time.{read,write,verify}), cache
// hit/miss counters and "cache_hit"/"media" trace events. A nil reg is
// a no-op, leaving the uninstrumented fast path in place.
func (d *Disk) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.obsSvc[OpRead-1] = reg.Histogram("disk.service_time.read")
	d.obsSvc[OpWrite-1] = reg.Histogram("disk.service_time.write")
	d.obsSvc[OpVerify-1] = reg.Histogram("disk.service_time.verify")
	d.obsHit = reg.Counter("disk.cache.hits")
	d.obsMiss = reg.Counter("disk.cache.misses")
	d.obsTrace = reg.Trace()
}

// ErrOutOfRange reports a request beyond the end of the disk.
type ErrOutOfRange struct {
	LBA, Sectors, Max int64
}

// Error implements error.
func (e *ErrOutOfRange) Error() string {
	return fmt.Sprintf("disk: request [%d, %d) outside [0, %d)", e.LBA, e.LBA+e.Sectors, e.Max)
}

// MediumError is the typed failure a READ or VERIFY returns when the
// medium access covered one or more latent sector errors: the drive's
// "unrecovered read error" sense. The accompanying Result is still fully
// populated — the command consumed its service time before failing, and
// Result.LSEs lists the same sectors — so callers can account timing and
// decide on retry, remap or data-loss handling (package blockdev owns the
// retry/backoff policy).
type MediumError struct {
	Op   Op
	LBAs []int64 // bad sectors hit, ascending
}

// Error implements error.
func (e *MediumError) Error() string {
	return fmt.Sprintf("disk: medium error: %s hit %d latent sector error(s), first at LBA %d",
		e.Op, len(e.LBAs), e.First())
}

// First returns the lowest failed LBA, or -1 for a malformed empty error.
func (e *MediumError) First() int64 {
	if len(e.LBAs) == 0 {
		return -1
	}
	return e.LBAs[0]
}

// Service executes one command submitted at virtual time now and returns
// its timing. The caller must not submit the next command before the
// previous Result.Done; Disk models a queue depth of one (the regime the
// paper's CFQ analysis assumes).
//
//scrub:hotpath
func (d *Disk) Service(req Request, now time.Duration) (Result, error) {
	if req.Sectors <= 0 || req.LBA < 0 || req.LBA+req.Sectors > d.Sectors() {
		return Result{}, &ErrOutOfRange{LBA: req.LBA, Sectors: req.Sectors, Max: d.Sectors()}
	}
	m := &d.model
	res := Result{Start: now}
	d.st.Served++

	accepted := now + m.CommandOverhead

	// Cache-path eligibility: reads always consult the cache; VERIFY only
	// does on drives with the broken ATA behaviour.
	cacheable := d.st.CacheEnabled && !req.BypassCache &&
		(req.Op == OpRead || (req.Op == OpVerify && m.VerifyFromCache))
	if cacheable && d.cache.contains(req.LBA, req.Sectors) {
		d.st.CacheHits++
		res.CacheHit = true
		transfer := time.Duration(0)
		if req.Op == OpRead {
			transfer = time.Duration(float64(req.Bytes()) / m.BusBytesPerSec * float64(time.Second))
		} else {
			// Cached VERIFY still walks the cache contents.
			transfer = time.Duration(float64(req.Bytes()) / (2 * m.BusBytesPerSec) * float64(time.Second))
		}
		res.Done = accepted + transfer + m.CompletionOverhead
		if d.obsHit != nil {
			d.obsHit.Inc()
			d.obsSvc[req.Op-1].Observe(res.Done - now)
			d.obsTrace.Emit(now, "disk", "cache_hit", req.LBA, req.Sectors)
		}
		return res, nil
	}

	// Mechanical path.
	if cacheable && d.obsHit != nil {
		d.obsMiss.Inc()
	}
	d.st.MediaOps++
	// One zone lookup per command: the cylinder, the rotational position
	// and the transfer walk start from it, and the walk ends on the head's
	// new cylinder.
	zone := d.geo.zoneOf(req.LBA)
	targetCyl, left := d.geo.cylinderOf(req.LBA, zone)
	seek := d.geo.seekTime(d.st.HeadCyl, targetCyl)
	atTrack := accepted + seek
	rot := d.geo.rotWait(atTrack, d.geo.angleOf(req.LBA, zone))
	transfer, lastCyl := d.geo.transferTime(req.Sectors, left, zone, targetCyl)
	mechDone := atTrack + rot + transfer
	res.Done = mechDone + m.CompletionOverhead
	d.st.HeadCyl = lastCyl

	// Cache effects. Readahead stops at the first latent sector error at
	// or beyond the requested range: a drive cannot prefetch through a bad
	// sector, so the error stays detectable by a later direct access.
	if d.st.CacheEnabled {
		switch req.Op {
		case OpRead:
			d.cache.fill(req.LBA, req.Sectors, m.ReadAheadBytes/SectorSize, d.cacheLimit(req.LBA))
		case OpWrite:
			d.cache.invalidate(req.LBA, req.Sectors)
			d.reallocate(req.LBA, req.Sectors)
		case OpVerify:
			if m.VerifyFromCache {
				// The ATA bug: VERIFY populates the cache (pollution).
				d.cache.fill(req.LBA, req.Sectors, m.ReadAheadBytes/SectorSize, d.cacheLimit(req.LBA))
			}
		}
	}

	if req.Op == OpWrite && !d.st.CacheEnabled {
		d.reallocate(req.LBA, req.Sectors)
	}
	// LSE detection on medium access: the command still pays its full
	// mechanical service time (the error surfaces at the read head), then
	// fails with a typed medium error. A drive without LSEs skips the
	// search.
	if req.Op != OpWrite && len(d.st.LSEs) > 0 {
		res.LSEs = d.lsesIn(req.LBA, req.Sectors)
	}
	if d.obsHit != nil {
		d.obsSvc[req.Op-1].Observe(res.Done - now)
		d.obsTrace.Emit(now, "disk", "media", req.LBA, req.Sectors)
	}
	if len(res.LSEs) > 0 {
		return res, &MediumError{Op: req.Op, LBAs: res.LSEs}
	}
	return res, nil
}

// reallocate clears latent errors overwritten by a write: drives remap a
// bad sector to a spare on write, which is how detected LSEs get repaired.
func (d *Disk) reallocate(lba, n int64) {
	lo := sort.Search(len(d.st.LSEs), func(i int) bool { return d.st.LSEs[i] >= lba })
	hi := sort.Search(len(d.st.LSEs), func(i int) bool { return d.st.LSEs[i] >= lba+n })
	if lo < hi {
		d.st.LSEs = append(d.st.LSEs[:lo], d.st.LSEs[hi:]...)
	}
}

// cacheLimit returns the exclusive upper bound cacheable from lba on:
// the disk end, or the first latent sector error at or after lba.
func (d *Disk) cacheLimit(lba int64) int64 {
	i := sort.Search(len(d.st.LSEs), func(i int) bool { return d.st.LSEs[i] >= lba })
	if i < len(d.st.LSEs) {
		return d.st.LSEs[i]
	}
	return d.Sectors()
}

// lsesIn returns injected LSEs within [lba, lba+n).
func (d *Disk) lsesIn(lba, n int64) []int64 {
	lo := sort.Search(len(d.st.LSEs), func(i int) bool { return d.st.LSEs[i] >= lba })
	hi := sort.Search(len(d.st.LSEs), func(i int) bool { return d.st.LSEs[i] >= lba+n })
	if lo == hi {
		return nil
	}
	out := make([]int64, hi-lo)
	copy(out, d.st.LSEs[lo:hi])
	return out
}

// MediaRate returns the sustained media rate in bytes/sec at an LBA in
// [0, Sectors()).
func (d *Disk) MediaRate(lba int64) float64 { return d.geo.mediaRate(lba) }

// SeekTime exposes the seek curve between two LBAs in [0, Sectors()), for
// calibration tests and the documentation of optimizer inputs.
func (d *Disk) SeekTime(fromLBA, toLBA int64) time.Duration {
	g := d.geo
	from, _ := g.cylinderOf(fromLBA, g.zoneOf(fromLBA))
	to, _ := g.cylinderOf(toLBA, g.zoneOf(toLBA))
	return g.seekTime(from, to)
}
