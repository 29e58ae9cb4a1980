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
// running concurrently on different goroutines. Without sharing, every
// hydration of a fleet member would rebuild O(cylinders) tables — 12
// bytes per cylinder plus 4 per cylinder-index bucket: 1.67 MB for the
// 115,000-cylinder Ultrastar, 1.56 MB for the Deskstar, 1.23 MB for the
// Caviar, 0.69 MB and 0.50 MB for the two Fujitsus, 12 KB for DemoSmall —
// which would dominate both time and memory at million-drive scale.
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
// capacity.
type geometry struct {
	model     *Model
	sptByCyl  []int32 // sectors per track at each cylinder
	cumSector []int64 // cumSector[c] = first LBA of cylinder c; len = Cylinders+1
	// cylIdx[b] is the cylinder holding LBA b<<cylShift, the first LBA
	// of bucket b. A bucket spans at most four of the smallest
	// cylinders, so it crosses at most four cylinder boundaries.
	cylIdx   []uint32
	cylShift uint
	rotation time.Duration
}

func newGeometry(m *Model) *geometry {
	g := &geometry{model: m, rotation: m.RotationTime()}
	c := m.Cylinders
	g.sptByCyl = make([]int32, c)
	g.cumSector = make([]int64, c+1)

	// Shape: spt(cyl) proportional to ratio at the outer edge falling
	// linearly to 1 at the inner edge, then scaled to match capacity.
	weights := make([]float64, c)
	totalWeight := 0.0
	for i := 0; i < c; i++ {
		frac := float64(i) / float64(c-1)
		weights[i] = m.ZoneRatio - (m.ZoneRatio-1)*frac
		totalWeight += weights[i]
	}
	sectorsWanted := m.Sectors()
	perHead := float64(sectorsWanted) / float64(m.Heads)
	var cum int64
	minCyl := int64(math.MaxInt64)
	for i := 0; i < c; i++ {
		g.cumSector[i] = cum
		spt := int(math.Round(perHead * weights[i] / totalWeight))
		if spt < 1 {
			spt = 1
		}
		g.sptByCyl[i] = int32(spt)
		size := int64(spt) * int64(m.Heads)
		minCyl = min(minCyl, size)
		cum += size
	}
	g.cumSector[c] = cum

	// The widest power-of-two bucket no larger than four of the smallest
	// cylinders; then one linear pass records each bucket's cylinder.
	for int64(2)<<g.cylShift <= 4*minCyl {
		g.cylShift++
	}
	g.cylIdx = make([]uint32, (cum-1)>>g.cylShift+1)
	cyl := 0
	for b := range g.cylIdx {
		lba := int64(b) << g.cylShift
		for g.cumSector[cyl+1] <= lba {
			cyl++
		}
		g.cylIdx[b] = uint32(cyl)
	}
	return g
}

// sectors returns the addressable sector count (may differ from the
// model's nominal capacity by rounding; always within one cylinder).
func (g *geometry) sectors() int64 { return g.cumSector[len(g.cumSector)-1] }

// cylinderOf returns the cylinder containing the LBA, which must lie in
// [0, sectors()). It reads the cylinder of the LBA's bucket from cylIdx,
// then steps forward over the at most four cylinder boundaries the
// bucket can cross: one table load and a few compares per lookup.
//
//scrub:hotpath
func (g *geometry) cylinderOf(lba int64) int {
	cyl := int(g.cylIdx[lba>>g.cylShift])
	for g.cumSector[cyl+1] <= lba {
		cyl++
	}
	return cyl
}

// locate returns the track (head) and sector-within-track of an LBA on
// cylinder cyl, which must be cylinderOf(lba).
func (g *geometry) locate(lba int64, cyl int) (head int, sector int64) {
	within := lba - g.cumSector[cyl]
	spt := int64(g.sptByCyl[cyl])
	return int(within / spt), within % spt
}

// angleOf returns the angular position of an LBA on cylinder cyl (which
// must be cylinderOf(lba)) as a fraction of a revolution in [0, 1),
// accounting for track and cylinder skew.
func (g *geometry) angleOf(lba int64, cyl int) float64 {
	head, sector := g.locate(lba, cyl)
	spt := float64(g.sptByCyl[cyl])
	trackIndex := float64(cyl*g.model.Heads + head)
	a := float64(sector)/spt + trackIndex*g.model.TrackSkew
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

// transferTime returns the media-rate time to read the n > 0 sectors
// [lba, lba+n) of the disk, starting on cylinder cyl (which must be
// cylinderOf(lba)), walking cylinders so that zoned rates apply, and the
// last cylinder the transfer touched. Head and cylinder switches are
// hidden by the track skew, as on real drives.
func (g *geometry) transferTime(lba, n int64, cyl int) (time.Duration, int) {
	var total time.Duration
	for {
		take := min(n, g.cumSector[cyl+1]-lba) // sectors left in this cylinder
		total += time.Duration(float64(take) / float64(g.sptByCyl[cyl]) * float64(g.rotation))
		lba += take
		n -= take
		if n == 0 {
			return total, cyl
		}
		cyl++
	}
}

// mediaRate returns the sustained media transfer rate at the LBA's zone in
// bytes per second.
func (g *geometry) mediaRate(lba int64) float64 {
	cyl := g.cylinderOf(lba)
	return float64(g.sptByCyl[cyl]) * SectorSize / g.rotation.Seconds()
}
