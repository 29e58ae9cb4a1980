// Package fault is the latent-sector-error (LSE) lifecycle subsystem:
// deterministic error-arrival models that plant LSEs on a simulated disk
// over virtual time, and an Injector that tracks each planted error from
// arrival through detection (a medium access covering it) to remap (a
// write reallocating it). It turns the repository's scheduling-only
// simulation into the full loop scrubbing exists for: errors appear, the
// scrubber finds them, the drive remaps them, and anything left over is
// a data-loss risk for RAID reconstruction (package raidsim).
//
// Arrival structure follows the field studies the paper builds on
// (Bairavasundaram et al., SIGMETRICS'07; Schroeder et al., FAST'10):
// errors arrive in temporal bursts that cluster spatially, and arrival
// rates accelerate with drive age. Three models cover the space:
// Uniform (homogeneous Poisson, single sectors), Bursty (Poisson events
// carrying geometrically-sized, spatially clustered bursts) and
// Accelerated (a linearly increasing hazard rate, i.e. an aging drive).
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Burst is one arrival event: a set of sectors going latent-bad at the
// same virtual instant.
type Burst struct {
	At   time.Duration
	LBAs []int64 // ascending, deduplicated
}

// Source is a deterministic stream of arrival bursts in ascending time.
// Streams are unbounded; the Injector pulls them lazily, one event ahead
// of the virtual clock.
type Source interface {
	// Next returns the next burst; ok=false ends the stream.
	Next() (Burst, bool)
}

// Model builds arrival sources for a disk. Implementations must be
// deterministic functions of (sectors, seed): the same inputs yield the
// same stream regardless of wall clock, host or worker count.
type Model interface {
	NewSource(sectors int64, seed int64) Source
	Name() string
}

// PosSource is a Source whose RNG stream position can be captured and
// restored, the contract the fleet engine's snapshot path needs. Pos
// returns the number of RNG draws consumed so far and the stream's
// virtual-time cursor; SetPos repositions the source at a captured
// position of seed's stream, after which the stream continues exactly
// where the original left off. SetPos works on any source of the same
// model, so one live source can serve member after member.
type PosSource interface {
	Source
	Pos() (draws uint64, now time.Duration)
	SetPos(seed int64, draws uint64, now time.Duration)
}

// countingSource wraps the standard seeded source and counts draws so a
// stream's RNG position is (seed, draws): math/rand exposes no state
// serialization, but every generator call advances the underlying source
// by exactly one step, so replaying N draws on a fresh source of the
// same seed reproduces the stream position exactly. The wrapper
// implements rand.Source64, the same interface the unwrapped source
// satisfies, so rand.Rand dispatches identically and the value stream is
// unchanged by the wrapping.
//
// Seeding the standard source costs far more than a draw, and a parked
// fleet member at field LSE rates almost never draws between one hydrate
// and the next. So the generator is seeded and advanced lazily: a seek
// only records (seed, draws), and the first draw after it seeds the
// generator and replays the draws.
type countingSource struct {
	seed   int64
	draws  uint64
	src    rand.Source64 // allocated at the first draw, reseeded after
	synced bool          // src stands at draw number draws of seed's stream
}

func newCountingSource(seed int64) *countingSource {
	return &countingSource{seed: seed}
}

// live returns the generator positioned at (seed, draws).
func (c *countingSource) live() rand.Source64 {
	if !c.synced {
		if c.src == nil {
			//scrublint:allow detorder this IS the draw-counting source; the wrapper captures draws for snapshot replay
			c.src = rand.NewSource(c.seed).(rand.Source64)
		} else {
			c.src.Seed(c.seed)
		}
		for i := uint64(0); i < c.draws; i++ {
			c.src.Uint64()
		}
		c.synced = true
	}
	return c.src
}

func (c *countingSource) Int63() int64 {
	src := c.live()
	c.draws++
	return src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	src := c.live()
	c.draws++
	return src.Uint64()
}

func (c *countingSource) Seed(seed int64) { c.seek(seed, 0) }

// seek positions the source at draw number draws of seed's stream. The
// generator is left alone: the next draw seeds it and replays the draws.
// Int63 and Uint64 both advance the standard source by one step, so
// replaying with Uint64 alone lands on the same state regardless of
// which mix of calls consumed the originals.
func (c *countingSource) seek(seed int64, draws uint64) {
	c.seed, c.draws, c.synced = seed, draws, false
}

// hoursToDuration converts a span in hours to a Duration, saturating
// instead of overflowing for the pathological rate->0 draws.
func hoursToDuration(h float64) time.Duration {
	s := h * float64(time.Hour)
	if s > float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return time.Duration(s)
}

// burstAround draws a burst of LBAs spatially clustered near an anchor:
// the first error lands on the anchor, the rest within clusterSectors of
// it, matching the field observation that an error's neighbours are
// orders of magnitude more likely to fail than the rest of the disk.
func burstAround(rng *rand.Rand, sectors, anchor int64, meanBurst float64, clusterSectors int64) []int64 {
	n := 1
	if meanBurst > 1 {
		// Geometric burst size with the requested mean: P(extra) = 1-1/mean.
		pExtra := 1 - 1/meanBurst
		for rng.Float64() < pExtra {
			n++
		}
	}
	if clusterSectors < 1 {
		clusterSectors = 1
	}
	seen := map[int64]bool{anchor: true}
	out := []int64{anchor}
	for len(out) < n {
		off := rng.Int63n(2*clusterSectors+1) - clusterSectors
		lba := anchor + off
		if lba < 0 || lba >= sectors || seen[lba] {
			continue
		}
		seen[lba] = true
		out = append(out, lba)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Uniform is a homogeneous Poisson process of single-sector errors with
// uniformly distributed LBAs: the memoryless baseline every reliability
// analysis starts from.
type Uniform struct {
	// RatePerHour is the expected number of error events per hour.
	RatePerHour float64
}

// Name implements Model.
func (u Uniform) Name() string { return "uniform" }

// NewSource implements Model.
func (u Uniform) NewSource(sectors int64, seed int64) Source {
	cs := newCountingSource(seed)
	return &poissonSource{
		rng:     rand.New(cs), //scrublint:allow seededrand countingSource wraps rand.NewSource(seed) one line up; the seed stays auditable
		cs:      cs,
		sectors: sectors,
		rate:    u.RatePerHour,
	}
}

// Bursty is a Poisson process of error events where each event plants a
// geometrically-sized burst of spatially clustered sectors.
type Bursty struct {
	// RatePerHour is the expected number of burst events per hour.
	RatePerHour float64
	// MeanBurst is the expected sectors per event (default 4).
	MeanBurst float64
	// ClusterSectors bounds how far burst members stray from the anchor
	// (default 1024, half a typical track).
	ClusterSectors int64
}

// Name implements Model.
func (b Bursty) Name() string { return "bursty" }

// NewSource implements Model.
func (b Bursty) NewSource(sectors int64, seed int64) Source {
	mean := b.MeanBurst
	if mean <= 0 {
		mean = 4
	}
	cluster := b.ClusterSectors
	if cluster <= 0 {
		cluster = 1024
	}
	cs := newCountingSource(seed)
	return &poissonSource{
		rng:     rand.New(cs), //scrublint:allow seededrand countingSource wraps rand.NewSource(seed); the seed stays auditable
		cs:      cs,
		sectors: sectors,
		rate:    b.RatePerHour,
		mean:    mean,
		cluster: cluster,
	}
}

// poissonSource drives Uniform and Bursty: exponential inter-arrivals,
// one burst per event (Uniform is the mean=1 special case).
type poissonSource struct {
	rng     *rand.Rand
	cs      *countingSource
	sectors int64
	rate    float64 // events per hour
	mean    float64 // burst size mean; <=1 means single sectors
	cluster int64
	now     time.Duration
}

var _ PosSource = (*poissonSource)(nil)

// Pos implements PosSource.
func (p *poissonSource) Pos() (uint64, time.Duration) { return p.cs.draws, p.now }

// SetPos implements PosSource.
func (p *poissonSource) SetPos(seed int64, draws uint64, now time.Duration) {
	p.cs.seek(seed, draws)
	p.now = now
}

// Next implements Source.
func (p *poissonSource) Next() (Burst, bool) {
	if p.rate <= 0 || p.sectors <= 0 {
		return Burst{}, false
	}
	p.now += hoursToDuration(p.rng.ExpFloat64() / p.rate)
	anchor := p.rng.Int63n(p.sectors)
	var lbas []int64
	if p.mean > 1 {
		lbas = burstAround(p.rng, p.sectors, anchor, p.mean, p.cluster)
	} else {
		lbas = []int64{anchor}
	}
	return Burst{At: p.now, LBAs: lbas}, true
}

// Accelerated is a non-homogeneous Poisson process whose event rate
// grows linearly with drive age: rate(t) = BaseRatePerHour ×
// (1 + GrowthPerHour × t_hours). It models the age/duty-cycle
// acceleration of LSE arrival reported by the field studies. Events
// carry Bursty-style clustered bursts when MeanBurst > 1.
type Accelerated struct {
	// BaseRatePerHour is the event rate at age zero.
	BaseRatePerHour float64
	// GrowthPerHour is the fractional rate increase per simulated hour
	// (e.g. 0.1 means +10%/hour).
	GrowthPerHour float64
	// MeanBurst is the expected sectors per event (default 1: single
	// sectors).
	MeanBurst float64
	// ClusterSectors bounds burst spread (default 1024).
	ClusterSectors int64
}

// Name implements Model.
func (a Accelerated) Name() string { return "accelerated" }

// NewSource implements Model.
func (a Accelerated) NewSource(sectors int64, seed int64) Source {
	cluster := a.ClusterSectors
	if cluster <= 0 {
		cluster = 1024
	}
	cs := newCountingSource(seed)
	return &acceleratedSource{
		rng:     rand.New(cs), //scrublint:allow seededrand countingSource wraps rand.NewSource(seed); the seed stays auditable
		cs:      cs,
		sectors: sectors,
		base:    a.BaseRatePerHour,
		growth:  a.GrowthPerHour,
		mean:    a.MeanBurst,
		cluster: cluster,
	}
}

type acceleratedSource struct {
	rng     *rand.Rand
	cs      *countingSource
	sectors int64
	base    float64
	growth  float64
	mean    float64
	cluster int64
	now     time.Duration
}

var _ PosSource = (*acceleratedSource)(nil)

// Pos implements PosSource.
func (a *acceleratedSource) Pos() (uint64, time.Duration) { return a.cs.draws, a.now }

// SetPos implements PosSource.
func (a *acceleratedSource) SetPos(seed int64, draws uint64, now time.Duration) {
	a.cs.seek(seed, draws)
	a.now = now
}

// Next implements Source. Inter-arrival times come from inverting the
// integrated rate: with rate(t) = base(1+g·t), the next arrival after t
// solves (base·g/2)s² + base(1+g·t)s = E for E ~ Exp(1) — exact, no
// thinning, so the stream stays deterministic and O(1) per event.
func (a *acceleratedSource) Next() (Burst, bool) {
	if a.base <= 0 || a.sectors <= 0 {
		return Burst{}, false
	}
	e := a.rng.ExpFloat64()
	tHours := a.now.Hours()
	var sHours float64
	if a.growth <= 0 {
		sHours = e / a.base
	} else {
		qa := a.base * a.growth / 2
		qb := a.base * (1 + a.growth*tHours)
		sHours = (-qb + math.Sqrt(qb*qb+4*qa*e)) / (2 * qa)
	}
	a.now += hoursToDuration(sHours)
	anchor := a.rng.Int63n(a.sectors)
	var lbas []int64
	if a.mean > 1 {
		lbas = burstAround(a.rng, a.sectors, anchor, a.mean, a.cluster)
	} else {
		lbas = []int64{anchor}
	}
	return Burst{At: a.now, LBAs: lbas}, true
}

// ParseModel builds a Model from a CLI-style name. Rates and shapes come
// from the caller's flags; this only resolves the family.
func ParseModel(name string, ratePerHour, meanBurst float64, clusterSectors int64, growthPerHour float64) (Model, error) {
	switch name {
	case "uniform":
		return Uniform{RatePerHour: ratePerHour}, nil
	case "bursty":
		return Bursty{RatePerHour: ratePerHour, MeanBurst: meanBurst, ClusterSectors: clusterSectors}, nil
	case "accel", "accelerated":
		return Accelerated{
			BaseRatePerHour: ratePerHour,
			GrowthPerHour:   growthPerHour,
			MeanBurst:       meanBurst,
			ClusterSectors:  clusterSectors,
		}, nil
	default:
		return nil, fmt.Errorf("fault: unknown model %q (want uniform, bursty or accel)", name)
	}
}
