package fault

import (
	"sort"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Stats aggregates one injector's lifecycle accounting.
type Stats struct {
	// Injected counts sectors planted on the medium.
	Injected int64
	// Detected counts planted sectors later reported by a medium READ or
	// VERIFY (first detection only).
	Detected int64
	// Remapped counts planted sectors reallocated by a write after having
	// been detected — the completed detect-and-correct loop.
	Remapped int64
	// ClearedUndetected counts planted sectors overwritten before any
	// read found them: the workload scrubbed them away by accident.
	ClearedUndetected int64
	// DetectionTime sums arrival-to-detection latency over all detected
	// sectors.
	DetectionTime time.Duration
}

// Outstanding returns planted sectors not yet detected or cleared.
func (s Stats) Outstanding() int64 {
	return s.Injected - s.Detected - s.ClearedUndetected
}

// DetectionRatio returns detected / injected in [0, 1] (1 when nothing
// was injected).
func (s Stats) DetectionRatio() float64 {
	if s.Injected == 0 {
		return 1
	}
	return float64(s.Detected) / float64(s.Injected)
}

// MeanTimeToDetection returns the average arrival-to-detection latency
// of detected sectors.
func (s Stats) MeanTimeToDetection() time.Duration {
	if s.Detected == 0 {
		return 0
	}
	return s.DetectionTime / time.Duration(s.Detected)
}

// TTDBuckets returns histogram bounds suited to detection latencies:
// log-spaced (1-2-5) from 1 second to 50,000 seconds (~14 h), a scale
// where full scrub passes live, unlike the microsecond-scale default
// latency buckets.
func TTDBuckets() []time.Duration {
	var out []time.Duration
	for base := time.Second; base <= 10000*time.Second; base *= 10 {
		out = append(out, base, 2*base, 5*base)
	}
	return out
}

// Injector plants a Model's arrival stream onto one disk and tracks each
// planted sector through detection and remap. Like every component of
// the simulation it is single-threaded: one injector per disk, one disk
// per simulator.
type Injector struct {
	st InjectorState // live state; the source, event and maps are recorded by SaveState

	sim *sim.Simulator //scrublint:transient wiring, supplied at construction
	dev disk.Device    //scrublint:transient wiring, supplied at construction
	src Source         //scrublint:transient arrival source, its position recorded as Draws/SrcNow by SaveState

	// next is the pending arrival of the burst pulled ahead of the clock
	// (NextAt/NextLBAs). Keeping the burst in the state (rather than
	// captured in a closure) is what lets a snapshot record the timer as
	// EvAt/EvSeq and a restore re-arm it.
	next sim.Timer

	// arrival holds planted, not-yet-detected sectors; detected holds
	// sectors awaiting remap.
	arrival  map[int64]time.Duration //scrublint:transient recorded sorted as Arrival by SaveState
	detected map[int64]bool          //scrublint:transient recorded sorted as Detected by SaveState

	// Observability instruments (nil when uninstrumented).
	obsInjected *obs.Counter
	obsDetected *obs.Counter
	obsRemapped *obs.Counter
	obsCleared  *obs.Counter
	obsTTD      *obs.Histogram
	obsTrace    *obs.Ring
}

// NewInjector builds an injector for one disk from a model and seed.
func NewInjector(s *sim.Simulator, d disk.Device, m Model, seed int64) *Injector {
	in := &Injector{
		sim:      s,
		dev:      d,
		src:      m.NewSource(d.Sectors(), seed),
		arrival:  make(map[int64]time.Duration),
		detected: make(map[int64]bool),
	}
	in.next.Init(s, in.fireNext)
	return in
}

// Instrument attaches the injector to a metrics registry: lifecycle
// counters (fault.injected, fault.detected, fault.remapped,
// fault.cleared_undetected), a time-to-detection histogram
// (fault.time_to_detection, on TTDBuckets bounds) and "inject"/"detect"/
// "remap" trace events. A nil reg is a no-op.
func (in *Injector) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	in.obsInjected = reg.Counter("fault.injected")
	in.obsDetected = reg.Counter("fault.detected")
	in.obsRemapped = reg.Counter("fault.remapped")
	in.obsCleared = reg.Counter("fault.cleared_undetected")
	in.obsTTD = reg.HistogramBuckets("fault.time_to_detection", TTDBuckets())
	in.obsTrace = reg.Trace()
}

// Stats returns a copy of the lifecycle counters.
func (in *Injector) Stats() Stats { return in.st.Stats }

// Start schedules the arrival stream. Arrivals are pulled lazily — one
// pending event ahead of the clock — so unbounded streams cost O(1)
// memory and never outrun RunUntil horizons.
func (in *Injector) Start() {
	if in.st.Started {
		return
	}
	in.st.Started = true
	in.scheduleNext()
}

func (in *Injector) scheduleNext() {
	b, ok := in.src.Next()
	in.st.HasNext, in.st.NextAt, in.st.NextLBAs = ok, b.At, b.LBAs
	if ok {
		in.next.Arm(b.At)
	}
}

// fireNext plants the pending burst and pulls the next one.
func (in *Injector) fireNext() {
	in.plant(in.st.NextLBAs)
	in.scheduleNext()
}

// plant injects one burst's sectors, skipping those already bad.
func (in *Injector) plant(lbas []int64) {
	now := in.sim.Now()
	planted := int64(0)
	for _, lba := range lbas {
		if _, dup := in.arrival[lba]; dup || in.detected[lba] {
			continue
		}
		in.dev.InjectLSE(lba)
		in.arrival[lba] = now
		in.st.Stats.Injected++
		planted++
	}
	if planted > 0 {
		in.obsInjected.Add(planted)
		in.obsTrace.Emit(now, "fault", "inject", lbas[0], planted)
	}
}

// AttachQueue wires lifecycle tracking to a block-device queue over the
// injector's disk: completions carrying LSEs mark detections, and
// completed writes covering tracked sectors mark remaps (detected
// sectors) or accidental clears (undetected ones). Works for any
// producer — scrubber verifies, foreground reads, RAID rebuild I/O.
func (in *Injector) AttachQueue(q *blockdev.Queue) {
	q.SubscribeComplete(func(r *blockdev.Request) {
		switch {
		case len(r.LSEs) > 0:
			in.Detect(r.LSEs, r.Done)
		case r.Op == disk.OpWrite:
			in.remapRange(r.LBA, r.Sectors, r.Done)
		}
	})
}

// Detect records first detections among the reported sectors at time
// now. Safe to call with sectors the injector never planted (pre-seeded
// LSEs); those are ignored.
func (in *Injector) Detect(lbas []int64, now time.Duration) {
	for _, lba := range lbas {
		at, ok := in.arrival[lba]
		if !ok {
			continue
		}
		delete(in.arrival, lba)
		in.detected[lba] = true
		in.st.Stats.Detected++
		in.st.Stats.DetectionTime += now - at
		in.obsDetected.Inc()
		in.obsTTD.Observe(now - at)
		in.obsTrace.Emit(now, "fault", "detect", lba, int64((now - at)))
	}
}

// remapRange resolves tracked sectors overwritten by [lba, lba+n).
// Matches are collected and sorted before processing so map iteration
// order can never influence counters, traces or event ordering.
func (in *Injector) remapRange(lba, n int64, now time.Duration) {
	var remapped, cleared []int64
	for s := range in.detected {
		if s >= lba && s < lba+n {
			remapped = append(remapped, s)
		}
	}
	for s := range in.arrival {
		if s >= lba && s < lba+n {
			cleared = append(cleared, s)
		}
	}
	sort.Slice(remapped, func(i, j int) bool { return remapped[i] < remapped[j] })
	sort.Slice(cleared, func(i, j int) bool { return cleared[i] < cleared[j] })
	for _, s := range remapped {
		delete(in.detected, s)
		in.st.Stats.Remapped++
		in.obsRemapped.Inc()
		in.obsTrace.Emit(now, "fault", "remap", s, 1)
	}
	for _, s := range cleared {
		delete(in.arrival, s)
		in.st.Stats.ClearedUndetected++
		in.obsCleared.Inc()
	}
}
