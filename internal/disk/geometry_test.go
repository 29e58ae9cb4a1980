package disk

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refCylinderOf is the reference lookup: a binary search for the last
// cylinder whose first LBA is <= lba.
func refCylinderOf(g *geometry, lba int64) int {
	return sort.Search(len(g.cumSector), func(i int) bool { return g.cumSector[i] > lba }) - 1
}

// refTransferTime is the reference transfer walk: one cylinder lookup
// per cylinder boundary crossed.
func refTransferTime(g *geometry, lba, n int64) time.Duration {
	var total time.Duration
	for n > 0 {
		cyl := refCylinderOf(g, lba)
		take := min(n, g.cumSector[cyl+1]-lba)
		total += time.Duration(float64(take) / float64(g.sptByCyl[cyl]) * float64(g.rotation))
		lba += take
		n -= take
	}
	return total
}

func geometryModels() []Model { return append(Catalog(), DemoSmall()) }

// TestCylinderOfMatchesBinarySearch checks the bucket index against the
// reference binary search on every model: the first and last LBA of
// every cylinder, plus seeded random LBAs.
func TestCylinderOfMatchesBinarySearch(t *testing.T) {
	for _, m := range geometryModels() {
		t.Run(m.Name, func(t *testing.T) {
			g := geometryFor(m)
			check := func(lba int64) {
				if got, want := g.cylinderOf(lba), refCylinderOf(g, lba); got != want {
					t.Fatalf("cylinderOf(%d) = %d, binary search says %d", lba, got, want)
				}
			}
			for c := 0; c < m.Cylinders; c++ {
				check(g.cumSector[c])
				check(g.cumSector[c+1] - 1)
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 100000; i++ {
				check(rng.Int63n(g.sectors()))
			}
		})
	}
}

// TestCylinderIndexStepBound pins the bucket sizing the lookup's cost
// rests on: no bucket spans more than four of the smallest cylinders.
func TestCylinderIndexStepBound(t *testing.T) {
	for _, m := range geometryModels() {
		g := geometryFor(m)
		minCyl := g.sectors()
		for c := 0; c < m.Cylinders; c++ {
			minCyl = min(minCyl, g.cumSector[c+1]-g.cumSector[c])
		}
		if bucket := int64(1) << g.cylShift; bucket > 4*minCyl || 2*bucket <= 4*minCyl {
			t.Errorf("%s: bucket of %d sectors for a smallest cylinder of %d", m.Name, bucket, minCyl)
		}
	}
}

// TestServiceAcrossCylinderBoundaries services requests that straddle
// one to three cylinder boundaries and checks the head ends on the
// cylinder of the last sector, the transfer time matches the reference
// per-boundary walk, and the whole service time adds up from the parts.
func TestServiceAcrossCylinderBoundaries(t *testing.T) {
	for _, m := range []Model{HitachiUltrastar15K450(), DemoSmall()} {
		t.Run(m.Name, func(t *testing.T) {
			d := MustNew(m)
			g := d.geo
			rng := rand.New(rand.NewSource(5))
			var now time.Duration
			for i := 0; i < 2000; i++ {
				c := 1 + rng.Intn(m.Cylinders-4)
				lba := g.cumSector[c] - 1 - rng.Int63n(g.cumSector[c]-g.cumSector[c-1])
				cross := 1 + rng.Intn(3) // boundaries to cross
				end := g.cumSector[c+cross-1] + 1 + rng.Int63n(g.cumSector[c+cross]-g.cumSector[c+cross-1]-1)
				req := Request{Op: OpVerify, LBA: lba, Sectors: end - lba}

				cyl := g.cylinderOf(lba)
				transfer, last := g.transferTime(lba, req.Sectors, cyl)
				if want := refTransferTime(g, lba, req.Sectors); transfer != want {
					t.Fatalf("transferTime(%d, %d) = %v, reference walk %v", lba, req.Sectors, transfer, want)
				}
				if want := refCylinderOf(g, end-1); last != want {
					t.Fatalf("transfer of [%d, %d) ended on cylinder %d, want %d", lba, end, last, want)
				}

				atTrack := now + m.CommandOverhead + g.seekTime(d.st.HeadCyl, cyl)
				want := atTrack + g.rotWait(atTrack, g.angleOf(lba, cyl)) + transfer + m.CompletionOverhead
				res, err := d.Service(req, now)
				if err != nil {
					t.Fatal(err)
				}
				if res.Done != want {
					t.Fatalf("Service([%d, %d)) done at %v, parts add up to %v", lba, end, res.Done, want)
				}
				if want := g.cylinderOf(end - 1); d.st.HeadCyl != want {
					t.Fatalf("head on cylinder %d after [%d, %d), want %d", d.st.HeadCyl, lba, end, want)
				}
				now = res.Done
			}
		})
	}
}

// TestDiskServiceZeroAlloc pins the mechanical service path at zero
// allocations per command (uninstrumented, no medium errors) over a
// seeded random mix of reads, writes and verifies.
func TestDiskServiceZeroAlloc(t *testing.T) {
	d := MustNew(HitachiUltrastar15K450())
	rng := rand.New(rand.NewSource(9))
	ops := [...]Op{OpRead, OpWrite, OpVerify}
	var now time.Duration
	step := func() {
		req := Request{Op: ops[rng.Intn(len(ops))], LBA: rng.Int63n(d.Sectors() - 1024), Sectors: 8 + rng.Int63n(1016)}
		res, err := d.Service(req, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Done
	}
	for i := 0; i < 1000; i++ {
		step() // fill the cache's segment table
	}
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("Service allocates %.2f per op, want 0", avg)
	}
}

// BenchmarkDiskService times Disk.Service on the mechanical path: random
// 64 KB reads on the Ultrastar (seek-bound) and sequential 64 KB
// verifies on DemoSmall (the scrubber's stream).
func BenchmarkDiskService(b *testing.B) {
	const sectors = 64 << 10 / SectorSize
	b.Run("ultrastar-random-read-64k", func(b *testing.B) {
		d := MustNew(HitachiUltrastar15K450())
		rng := rand.New(rand.NewSource(1))
		span := d.Sectors() - sectors
		var now time.Duration
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, _ := d.Service(Request{Op: OpRead, LBA: rng.Int63n(span), Sectors: sectors}, now)
			now = res.Done
		}
	})
	b.Run("demo-seq-verify-64k", func(b *testing.B) {
		d := MustNew(DemoSmall())
		span := d.Sectors() / sectors * sectors
		var now time.Duration
		var lba int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, _ := d.Service(Request{Op: OpVerify, LBA: lba, Sectors: sectors}, now)
			now = res.Done
			if lba += sectors; lba >= span {
				lba = 0
			}
		}
	})
}
