package disk

import (
	"errors"
	"math/rand"
	"sort"
	"time"

	"repro/internal/obs"
)

// SSDModel holds the parameters of a flash device: no seek curve or
// rotational position, channel/die parallelism instead of a zone table,
// and a background FTL garbage-collection pause process that periodically
// makes the device unavailable — the "idle-time thief" that inverts the
// paper's HDD idle-detection assumptions. All fields are scalars so the
// struct stays comparable and gob-encodable like Model.
type SSDModel struct {
	Name          string
	Intf          string
	CapacityBytes int64

	// Flash geometry: commands stripe pages across Channels ×
	// DiesPerChannel independent flash dies; one "wave" programs or
	// reads one page per die.
	Channels       int
	DiesPerChannel int
	PageBytes      int64
	ReadPage       time.Duration // flash read latency per page wave
	ProgramPage    time.Duration // flash program latency per page wave

	CommandOverhead    time.Duration
	CompletionOverhead time.Duration
	BusBytesPerSec     float64

	// FTL garbage collection: pauses arrive with exponentially
	// distributed gaps (mean GCInterval) and exponentially distributed
	// durations (mean GCPause), drawn from a generator seeded with
	// GCSeed so the schedule is a pure function of the model. A request
	// arriving during a pause waits for its end; a pause nobody collides
	// with has silently consumed idle time. GCInterval <= 0 or
	// GCPause <= 0 disables the process.
	GCInterval time.Duration
	GCPause    time.Duration
	GCSeed     int64
}

// NVMeDC1T is a 1 TB datacenter NVMe drive: 32-way die parallelism,
// 4 KiB pages, and millisecond-scale FTL pauses every few tens of
// milliseconds — roughly the profile of the modern devices the trace
// uplift targets.
func NVMeDC1T() SSDModel {
	return SSDModel{
		Name:               "NVMe-DC 1TB",
		Intf:               "NVMe",
		CapacityBytes:      1 << 40,
		Channels:           8,
		DiesPerChannel:     4,
		PageBytes:          4 << 10,
		ReadPage:           60 * time.Microsecond,
		ProgramPage:        600 * time.Microsecond,
		CommandOverhead:    5 * time.Microsecond,
		CompletionOverhead: 5 * time.Microsecond,
		BusBytesPerSec:     3.2e9,
		GCInterval:         30 * time.Millisecond,
		GCPause:            2 * time.Millisecond,
		GCSeed:             1,
	}
}

// DemoSSD is a small flash device for tests and demos, the SSD analogue
// of DemoSmall: 2 GB so full-device scrubs finish in simulated seconds.
func DemoSSD() SSDModel {
	return SSDModel{
		Name:               "Demo SSD 2GB",
		Intf:               "NVMe",
		CapacityBytes:      2 << 30,
		Channels:           4,
		DiesPerChannel:     2,
		PageBytes:          4 << 10,
		ReadPage:           50 * time.Microsecond,
		ProgramPage:        500 * time.Microsecond,
		CommandOverhead:    5 * time.Microsecond,
		CompletionOverhead: 5 * time.Microsecond,
		BusBytesPerSec:     1.6e9,
		GCInterval:         20 * time.Millisecond,
		GCPause:            1 * time.Millisecond,
		GCSeed:             1,
	}
}

// SSDCatalog lists the flash models usable by name from command-line
// tools (the demo device is resolved explicitly, like DemoSmall).
func SSDCatalog() []SSDModel { return []SSDModel{NVMeDC1T()} }

// Sectors returns the device capacity in sectors.
func (m SSDModel) Sectors() int64 { return m.CapacityBytes / SectorSize }

// Validate checks the parameter set for consistency.
func (m SSDModel) Validate() error {
	switch {
	case m.CapacityBytes < SectorSize:
		return errors.New("ssd: capacity smaller than one sector")
	case m.Channels < 1 || m.DiesPerChannel < 1:
		return errors.New("ssd: need at least one channel and one die")
	case m.PageBytes < SectorSize:
		return errors.New("ssd: page smaller than one sector")
	case m.ReadPage <= 0 || m.ProgramPage <= 0:
		return errors.New("ssd: flash latencies must be positive")
	case m.BusBytesPerSec <= 0:
		return errors.New("ssd: bus rate must be positive")
	case (m.GCInterval > 0) != (m.GCPause > 0):
		return errors.New("ssd: GCInterval and GCPause must both be set or both be zero")
	}
	return nil
}

// DeviceName implements DeviceModel.
func (m SSDModel) DeviceName() string { return m.Name }

// DeviceSectors implements DeviceModel.
func (m SSDModel) DeviceSectors() int64 { return m.Sectors() }

// DefaultWaitThreshold implements DeviceModel: flash pays no mechanical
// penalty for a wrong idleness guess and its idle windows are fragmented
// by GC pauses, so the Waiting policy fires after 20 ms instead of the
// paper's 100 ms.
func (m SSDModel) DefaultWaitThreshold() time.Duration { return 20 * time.Millisecond }

// NewDevice implements DeviceModel.
func (m SSDModel) NewDevice() (Device, error) { return NewSSD(m) }

// gcCursor walks the deterministic GC pause schedule. The schedule is a
// pure function of the model seed; the cursor records how many pauses it
// has generated so a snapshot can restore the position by replaying that
// many steps (the fault injector uses the same counting-RNG technique).
type gcCursor struct {
	rng        *rand.Rand
	idx        int64         // pauses generated so far
	start, end time.Duration // latest pause window [start, end)
}

func newGCCursor(seed int64) gcCursor {
	//scrublint:allow detorder idx-replay cursor: restore re-seeds and replays idx draws, so raw source state never needs capture
	return gcCursor{rng: rand.New(rand.NewSource(seed))}
}

// next generates the following pause window. Windows never overlap by
// construction: each starts a strictly positive gap after the previous
// one ends.
func (c *gcCursor) next(m *SSDModel) {
	gap := time.Duration(c.rng.ExpFloat64() * float64(m.GCInterval))
	if gap <= 0 {
		gap = time.Nanosecond
	}
	dur := time.Duration(c.rng.ExpFloat64() * float64(m.GCPause))
	if dur <= 0 {
		dur = time.Nanosecond
	}
	c.start = c.end + gap
	c.end = c.start + dur
	c.idx++
}

// replay rebuilds a cursor at position idx from the seed.
func replayGCCursor(m *SSDModel, idx int64) gcCursor {
	c := newGCCursor(m.GCSeed)
	for i := int64(0); i < idx; i++ {
		c.next(m)
	}
	return c
}

// SSD simulates a flash device: fixed command overhead, page transfers
// striped across the die array, bus transfer, and the seeded FTL GC
// pause process. Like Disk it models queue depth one on a virtual clock
// and carries the same LSE injection surface, so the block layer, fault
// injector and scrubber drive it unchanged through the Device interface.
type SSD struct {
	st SSDState // live state; the GC cursors keep their own positions

	model SSDModel //scrublint:transient construction parameter, supplied at construction
	// sectors is the model's capacity, stripe its pages per wave
	// (channels × dies).
	sectors, stripe int64 //scrublint:transient derived from the model
	gcOn            bool  //scrublint:transient configuration flag from the model

	// gc is the service-path GC cursor, gcq the StolenIdle query cursor.
	gc, gcq gcCursor //scrublint:transient positions recorded as GCIdx/GCQIdx by SaveState

	obsSvc   [3]*obs.Histogram
	obsGC    *obs.Counter
	obsTrace *obs.Ring
}

// NewSSD validates the model and builds a device.
func NewSSD(m SSDModel) (*SSD, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	s := &SSD{
		model:   m,
		sectors: m.Sectors(),
		stripe:  int64(m.Channels) * int64(m.DiesPerChannel),
		gcOn:    m.GCInterval > 0 && m.GCPause > 0,
	}
	if s.gcOn {
		s.gc = newGCCursor(m.GCSeed)
		s.gcq = newGCCursor(m.GCSeed)
	}
	return s, nil
}

// MustNewSSD is NewSSD for known-good models.
func MustNewSSD(m SSDModel) *SSD {
	s, err := NewSSD(m)
	if err != nil {
		panic(err)
	}
	return s
}

// Model returns the device's parameter set.
func (s *SSD) Model() SSDModel { return s.model }

// ModelName implements Device.
func (s *SSD) ModelName() string { return s.model.Name }

// Sectors implements Device.
func (s *SSD) Sectors() int64 { return s.sectors }

// Capacity implements Device.
func (s *SSD) Capacity() int64 { return s.sectors * SectorSize }

// InjectLSE implements Device: flash uncorrectable-read errors share the
// sorted-LBA bookkeeping the HDD model uses.
func (s *SSD) InjectLSE(lba int64) {
	i := sort.Search(len(s.st.LSEs), func(i int) bool { return s.st.LSEs[i] >= lba })
	if i < len(s.st.LSEs) && s.st.LSEs[i] == lba {
		return
	}
	s.st.LSEs = append(s.st.LSEs, 0)
	copy(s.st.LSEs[i+1:], s.st.LSEs[i:])
	s.st.LSEs[i] = lba
}

// RepairLSE implements Device.
func (s *SSD) RepairLSE(lba int64) {
	i := sort.Search(len(s.st.LSEs), func(i int) bool { return s.st.LSEs[i] >= lba })
	if i < len(s.st.LSEs) && s.st.LSEs[i] == lba {
		s.st.LSEs = append(s.st.LSEs[:i], s.st.LSEs[i+1:]...)
	}
}

// LSECount implements Device.
func (s *SSD) LSECount() int { return len(s.st.LSEs) }

// Stats implements Device. Flash has no read-cache model, so cacheHits
// is always zero.
func (s *SSD) Stats() (served, mediaOps, cacheHits int64) {
	return s.st.Served, s.st.MediaOps, 0
}

// GCStats reports the pause process as seen by the service path: pause
// windows generated on the service clock so far, requests that collided
// with a pause, and the total time those requests spent waiting.
func (s *SSD) GCStats() (pauses, delayedReqs int64, delayTotal time.Duration) {
	return s.gc.idx, s.st.GCHits, s.st.GCWait
}

// Instrument attaches the device to a metrics registry: per-op service
// time histograms (ssd.service_time.{read,write,verify}), a GC collision
// counter and trace events. A nil reg is a no-op.
func (s *SSD) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obsSvc[OpRead-1] = reg.Histogram("ssd.service_time.read")
	s.obsSvc[OpWrite-1] = reg.Histogram("ssd.service_time.write")
	s.obsSvc[OpVerify-1] = reg.Histogram("ssd.service_time.verify")
	s.obsGC = reg.Counter("ssd.gc.delayed")
	s.obsTrace = reg.Trace()
}

// gcDelay advances the pause schedule to time at and returns how long a
// request arriving then must wait. The service path calls it with
// non-decreasing times (queue depth one), so the cursor only moves
// forward. A pause that would begin mid-service is skipped — the FTL
// yields to host I/O and resumes in the next gap.
func (s *SSD) gcDelay(at time.Duration) time.Duration {
	if !s.gcOn {
		return 0
	}
	for s.gc.end <= at {
		s.gc.next(&s.model)
	}
	if s.gc.start <= at {
		return s.gc.end - at
	}
	return 0
}

// StolenIdle implements IdleThief: GC pause time overlapping [from, to).
// Idle trackers call it with non-overlapping, increasing intervals; the
// query cursor walks the same deterministic schedule as the service path
// without disturbing it.
func (s *SSD) StolenIdle(from, to time.Duration) time.Duration {
	if !s.gcOn || to <= from {
		return 0
	}
	for s.gcq.end <= from {
		s.gcq.next(&s.model)
	}
	var stolen time.Duration
	for s.gcq.start < to {
		lo, hi := s.gcq.start, s.gcq.end
		if lo < from {
			lo = from
		}
		if hi > to {
			hi = to
		}
		if hi > lo {
			stolen += hi - lo
		}
		if s.gcq.end >= to {
			// The pause straddles the window end; keep it current so the
			// next interval counts its tail.
			break
		}
		s.gcq.next(&s.model)
	}
	return stolen
}

// Service implements Device. The caller must not submit the next command
// before the previous Result.Done; SSD models queue depth one like Disk
// (parallelism lives inside one command as die striping, not across
// commands — the conservative regime for scrub-collision analysis).
//
//scrub:hotpath
func (s *SSD) Service(req Request, now time.Duration) (Result, error) {
	if req.Sectors <= 0 || req.LBA < 0 || req.LBA+req.Sectors > s.sectors {
		return Result{}, &ErrOutOfRange{LBA: req.LBA, Sectors: req.Sectors, Max: s.sectors}
	}
	m := &s.model
	res := Result{Start: now}
	s.st.Served++
	s.st.MediaOps++

	accepted := now + m.CommandOverhead
	if d := s.gcDelay(accepted); d > 0 {
		s.st.GCHits++
		s.st.GCWait += d
		s.obsGC.Inc()
		accepted += d
	}

	bytes := req.Sectors * SectorSize
	pages := (bytes + m.PageBytes - 1) / m.PageBytes
	waves := (pages + s.stripe - 1) / s.stripe
	per := m.ReadPage
	if req.Op == OpWrite {
		per = m.ProgramPage
	}
	flash := time.Duration(waves) * per
	bus := time.Duration(float64(bytes) / m.BusBytesPerSec * float64(time.Second))
	res.Done = accepted + flash + bus + m.CompletionOverhead

	if req.Op == OpWrite {
		// Programming fresh pages remaps any latent errors under the
		// extent, like the HDD reallocation path.
		s.clearLSEs(req.LBA, req.Sectors)
	} else {
		res.LSEs = s.lsesIn(req.LBA, req.Sectors)
	}
	if s.obsGC != nil {
		s.observe(req, &res)
	}
	if len(res.LSEs) > 0 {
		return res, &MediumError{Op: req.Op, LBAs: res.LSEs}
	}
	return res, nil
}

// clearLSEs drops injected errors within [lba, lba+n).
func (s *SSD) clearLSEs(lba, n int64) {
	if len(s.st.LSEs) == 0 {
		return
	}
	lo := sort.Search(len(s.st.LSEs), func(i int) bool { return s.st.LSEs[i] >= lba })
	hi := sort.Search(len(s.st.LSEs), func(i int) bool { return s.st.LSEs[i] >= lba+n })
	if lo != hi {
		s.st.LSEs = append(s.st.LSEs[:lo], s.st.LSEs[hi:]...)
	}
}

// lsesIn returns injected LSEs within [lba, lba+n).
func (s *SSD) lsesIn(lba, n int64) []int64 {
	lo := sort.Search(len(s.st.LSEs), func(i int) bool { return s.st.LSEs[i] >= lba })
	hi := sort.Search(len(s.st.LSEs), func(i int) bool { return s.st.LSEs[i] >= lba+n })
	if lo == hi {
		return nil
	}
	out := make([]int64, hi-lo)
	copy(out, s.st.LSEs[lo:hi])
	return out
}

// observe records instrumented metrics off the zero-alloc fast path.
func (s *SSD) observe(req Request, res *Result) {
	s.obsSvc[req.Op-1].Observe(res.Done - res.Start)
	s.obsTrace.Emit(res.Start, "ssd", "media", req.LBA, req.Sectors)
}
