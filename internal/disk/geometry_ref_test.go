package disk

import (
	"math"
	"time"
)

// cylGeometry is the reference geometry: the per-cylinder tables the
// zone runs replaced. cumSector[c] is the first LBA of cylinder c and
// sptByCyl[c] its sectors per track; cylinderOf is a binary search and
// transferTime walks one cylinder at a time.
type cylGeometry struct {
	model     *Model
	sptByCyl  []int32
	cumSector []int64 // len = Cylinders+1
	rotation  time.Duration
}

func newCylGeometry(m *Model) *cylGeometry {
	g := &cylGeometry{model: m, rotation: m.RotationTime()}
	c := m.Cylinders
	g.sptByCyl = make([]int32, c)
	g.cumSector = make([]int64, c+1)
	weights := make([]float64, c)
	totalWeight := 0.0
	for i := 0; i < c; i++ {
		frac := float64(i) / float64(c-1)
		weights[i] = m.ZoneRatio - (m.ZoneRatio-1)*frac
		totalWeight += weights[i]
	}
	perHead := float64(m.Sectors()) / float64(m.Heads)
	var cum int64
	for i := 0; i < c; i++ {
		g.cumSector[i] = cum
		spt := int(math.Round(perHead * weights[i] / totalWeight))
		if spt < 1 {
			spt = 1
		}
		g.sptByCyl[i] = int32(spt)
		cum += int64(spt) * int64(m.Heads)
	}
	g.cumSector[c] = cum
	return g
}

func (g *cylGeometry) sectors() int64 { return g.cumSector[len(g.cumSector)-1] }

// cylinderOf returns the last cylinder whose first LBA is <= lba.
func (g *cylGeometry) cylinderOf(lba int64) int {
	lo, hi := 0, len(g.cumSector)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if g.cumSector[m] <= lba {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo - 1
}

func (g *cylGeometry) locate(lba int64, cyl int) (head int, sector int64) {
	within := lba - g.cumSector[cyl]
	spt := int64(g.sptByCyl[cyl])
	return int(within / spt), within % spt
}

func (g *cylGeometry) angleOf(lba int64, cyl int) float64 {
	head, sector := g.locate(lba, cyl)
	spt := float64(g.sptByCyl[cyl])
	trackIndex := float64(cyl*g.model.Heads + head)
	a := float64(sector)/spt + trackIndex*g.model.TrackSkew
	a -= math.Floor(a)
	return a
}

func (g *cylGeometry) transferTime(lba, n int64, cyl int) (time.Duration, int) {
	var total time.Duration
	for {
		take := min(n, g.cumSector[cyl+1]-lba)
		total += time.Duration(float64(take) / float64(g.sptByCyl[cyl]) * float64(g.rotation))
		lba += take
		n -= take
		if n == 0 {
			return total, cyl
		}
		cyl++
	}
}
