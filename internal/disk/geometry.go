package disk

import (
	"math"
	"sync"
	"time"
)

// geoCache shares geometries across disks of the same model. A geometry
// is a pure function of the Model value (which is comparable — all
// scalar and string fields) and is never mutated after construction, so
// a single instance can back any number of disks, including disks
// running concurrently on different goroutines. A geometry is small, 16
// bytes per zone plus 4 per zone-index bucket: 10 KB for the Ultrastar's
// 341 zones, 4.6 KB and 3.7 KB for the two Fujitsus, 15 KB for the
// Deskstar and for DemoSmall, 51 KB for the Caviar (its innermost zone
// holds only four cylinders, which narrows its buckets). Building one
// walks every cylinder, though, so sharing it keeps that walk out of
// each fleet member's hydration.
var geoCache sync.Map // Model -> *geometry

func geometryFor(m Model) *geometry {
	if g, ok := geoCache.Load(m); ok {
		return g.(*geometry)
	}
	g, _ := geoCache.LoadOrStore(m, newGeometry(&m))
	return g.(*geometry)
}

// geometry precomputes the LBA-to-physical mapping for a model: zoned
// sectors-per-track decreasing linearly from the outer to the inner
// cylinder, scaled so that the cylinder capacities sum to the model's
// capacity. A run of cylinders with equal sectors per track forms a
// zone, as in zoned bit recording; inside a zone, cylinders and tracks
// follow from the zone's first LBA by division, so only the zones are
// stored.
type geometry struct {
	model *Model
	// zones lists the runs of equal sectors per track in cylinder order,
	// followed by a sentinel {lba: sectors(), cyl: Cylinders}.
	zones []zone
	// zoneIdx[b] is the zone holding LBA b<<zoneShift, the first LBA of
	// bucket b. A bucket spans at most four of the smallest zones, so it
	// crosses at most four zone boundaries.
	zoneIdx   []uint32
	zoneShift uint
	heads     int64
	rotation  time.Duration
}

// zone is a run of cylinders with the same sectors per track.
type zone struct {
	lba int64 // first LBA of the zone
	cyl int32 // first cylinder of the zone
	spt int32 // sectors per track on each of its cylinders
}

func newGeometry(m *Model) *geometry {
	g := &geometry{model: m, heads: int64(m.Heads), rotation: m.RotationTime()}
	c := m.Cylinders

	// Shape: spt(cyl) proportional to ratio at the outer edge falling
	// linearly to 1 at the inner edge, then scaled to match capacity.
	weight := func(i int) float64 {
		frac := float64(i) / float64(c-1)
		return m.ZoneRatio - (m.ZoneRatio-1)*frac
	}
	totalWeight := 0.0
	for i := 0; i < c; i++ {
		totalWeight += weight(i)
	}
	perHead := float64(m.Sectors()) / float64(m.Heads)
	// A zone also ends before it would pass 2^32 sectors, so offsets
	// within a zone divide in 32 bits. Validate keeps every cylinder below
	// 2^31 sectors, so each zone holds at least one.
	var lba int64
	for i := 0; i < c; i++ {
		spt := int32(max(1, int(math.Round(perHead*weight(i)/totalWeight))))
		cylLen := int64(spt) * g.heads
		if n := len(g.zones); n == 0 || g.zones[n-1].spt != spt || lba+cylLen-g.zones[n-1].lba > 1<<32 {
			g.zones = append(g.zones, zone{lba: lba, cyl: int32(i), spt: spt})
		}
		lba += cylLen
	}
	g.zones = append(g.zones, zone{lba: lba, cyl: int32(c)})

	// The widest power-of-two bucket no larger than four of the smallest
	// zones; then one linear pass records each bucket's zone.
	minZone := int64(math.MaxInt64)
	for z := range g.zones[1:] {
		minZone = min(minZone, g.zones[z+1].lba-g.zones[z].lba)
	}
	for int64(2)<<g.zoneShift <= 4*minZone {
		g.zoneShift++
	}
	g.zoneIdx = make([]uint32, (lba-1)>>g.zoneShift+1)
	z := 0
	for b := range g.zoneIdx {
		for g.zones[z+1].lba <= int64(b)<<g.zoneShift {
			z++
		}
		g.zoneIdx[b] = uint32(z)
	}
	return g
}

// sectors returns the addressable sector count (may differ from the
// model's nominal capacity by rounding; always within one cylinder).
func (g *geometry) sectors() int64 { return g.zones[len(g.zones)-1].lba }

// zoneOf returns the index of the zone containing the LBA, which must lie
// in [0, sectors()). It reads the zone of the LBA's bucket from zoneIdx,
// then steps forward over the at most four zone boundaries the bucket
// can cross: one table load and a few compares per lookup.
//
//scrub:hotpath
func (g *geometry) zoneOf(lba int64) int {
	z := int(g.zoneIdx[lba>>g.zoneShift])
	for g.zones[z+1].lba <= lba {
		z++
	}
	return z
}

// cylinderOf returns the cylinder holding the LBA, which must lie in zone
// z (zoneOf(lba)), and the sectors from the LBA to that cylinder's end.
func (g *geometry) cylinderOf(lba int64, z int) (cyl int, left int64) {
	zn := &g.zones[z]
	cylLen := uint32(zn.spt) * uint32(g.heads)
	within := uint32(lba - zn.lba)
	return int(zn.cyl) + int(within/cylLen), int64(cylLen - within%cylLen)
}

// angleOf returns the angular position of an LBA in zone z (zoneOf(lba))
// as a fraction of a revolution in [0, 1), accounting for track and
// cylinder skew. The track index counts tracks from the outer edge:
// the zone's first track plus the tracks before the LBA within the zone.
func (g *geometry) angleOf(lba int64, z int) float64 {
	zn := &g.zones[z]
	spt := uint32(zn.spt)
	within := uint32(lba - zn.lba)
	track, sector := within/spt, within%spt
	a := float64(sector)/float64(spt) + float64(int64(zn.cyl)*g.heads+int64(track))*g.model.TrackSkew
	a -= math.Floor(a)
	return a
}

// angleAt returns the platter's angular position at virtual time t.
func (g *geometry) angleAt(t time.Duration) float64 {
	if g.rotation <= 0 {
		return 0
	}
	rot := float64(t) / float64(g.rotation)
	return rot - math.Floor(rot)
}

// rotWait returns the time until the platter angle reaches target,
// starting at time t.
func (g *geometry) rotWait(t time.Duration, target float64) time.Duration {
	cur := g.angleAt(t)
	d := target - cur
	if d < 0 {
		d++
	}
	return time.Duration(d * float64(g.rotation))
}

// seekTime returns the head movement time between two cylinders:
// zero for no movement, otherwise settle + (full - settle) * sqrt(d/C).
func (g *geometry) seekTime(from, to int) time.Duration {
	if from == to {
		return 0
	}
	d := from - to
	if d < 0 {
		d = -d
	}
	m := g.model
	frac := math.Sqrt(float64(d) / float64(m.Cylinders))
	return m.SettleTime + time.Duration(frac*float64(m.FullSeek-m.SettleTime))
}

// transferTime returns the media-rate time to read n > 0 sectors
// starting left sectors before the end of cylinder cyl in zone z (as
// cylinderOf returns them), and the last cylinder the transfer touched.
// It walks cylinders so that zoned rates apply, stepping to the next zone
// when the walk crosses into it. Head and cylinder switches are hidden by
// the track skew, as on real drives.
func (g *geometry) transferTime(n, left int64, z, cyl int) (time.Duration, int) {
	var total time.Duration
	for take := left; ; take = int64(g.zones[z].spt) * g.heads {
		take = min(n, take)
		total += time.Duration(float64(take) / float64(g.zones[z].spt) * float64(g.rotation))
		if n -= take; n == 0 {
			return total, cyl
		}
		if cyl++; int32(cyl) == g.zones[z+1].cyl {
			z++
		}
	}
}
