package disk

import (
	"math/rand"
	"sync"
	"testing"
	"time"
)

// geometryModels returns the catalog, DemoSmall and a 3 TB drive with
// equal sectors on every track, whose single run of cylinders the
// geometry splits into zones of at most 2^32 sectors.
func geometryModels() []Model {
	wide := HitachiUltrastar15K450()
	wide.Name = "Wide 3TB (one sectors-per-track run)"
	wide.CapacityBytes, wide.Cylinders, wide.Heads, wide.ZoneRatio = 3e12, 1000, 4, 1
	return append(Catalog(), DemoSmall(), wide)
}

// refGeometries holds one reference geometry per model of
// geometryModels, in the same order, built on first use.
var refGeometries = sync.OnceValue(func() []*cylGeometry {
	var refs []*cylGeometry
	for _, m := range geometryModels() {
		refs = append(refs, newCylGeometry(&m))
	}
	return refs
})

// checkGeometry compares the zone geometry with the per-cylinder
// reference at one LBA and one transfer of n sectors starting there,
// clipped to the disk: cylinder, angle, transfer time and the last
// cylinder the transfer touched must all be equal.
func checkGeometry(t *testing.T, g *geometry, ref *cylGeometry, lba, n int64) {
	t.Helper()
	z := g.zoneOf(lba)
	cyl, left := g.cylinderOf(lba, z)
	want := ref.cylinderOf(lba)
	if wantLeft := ref.cumSector[want+1] - lba; cyl != want || left != wantLeft {
		t.Fatalf("%s: cylinderOf(%d) = %d with %d sectors left, tables say %d with %d",
			g.model.Name, lba, cyl, left, want, wantLeft)
	}
	if got, want := g.angleOf(lba, z), ref.angleOf(lba, cyl); got != want {
		t.Fatalf("%s: angleOf(%d) = %v, tables say %v", g.model.Name, lba, got, want)
	}
	n = min(n, g.sectors()-lba)
	got, last := g.transferTime(n, left, z, cyl)
	wantT, wantLast := ref.transferTime(lba, n, cyl)
	if got != wantT || last != wantLast {
		t.Fatalf("%s: transferTime(%d, %d) = %v ending on cylinder %d, tables say %v ending on %d",
			g.model.Name, lba, n, got, last, wantT, wantLast)
	}
}

// TestGeometryMatchesCylinderTables holds the zone-run geometry to the
// per-cylinder tables it replaced, on every model of geometryModels:
// both ends of every cylinder, seeded random LBAs, and transfers from 1
// to 100k sectors, which cross cylinder and zone boundaries.
func TestGeometryMatchesCylinderTables(t *testing.T) {
	for i, m := range geometryModels() {
		t.Run(m.Name, func(t *testing.T) {
			g, ref := geometryFor(m), refGeometries()[i]
			if g.sectors() != ref.sectors() {
				t.Fatalf("%d sectors, tables say %d", g.sectors(), ref.sectors())
			}
			rng := rand.New(rand.NewSource(13))
			length := func() int64 { return 1 + rng.Int63n([]int64{8, 1024, 100000}[rng.Intn(3)]) }
			for c := 0; c < m.Cylinders; c++ {
				checkGeometry(t, g, ref, ref.cumSector[c], length())
				checkGeometry(t, g, ref, ref.cumSector[c+1]-1, length())
			}
			// From up to 64 sectors before each zone boundary into the zone.
			for _, zn := range g.zones[1 : len(g.zones)-1] {
				checkGeometry(t, g, ref, zn.lba-1-rng.Int63n(64), 2+rng.Int63n(int64(zn.spt)*g.heads+64))
			}
			for i := 0; i < 100000; i++ {
				checkGeometry(t, g, ref, rng.Int63n(g.sectors()), length())
			}
		})
	}
}

// FuzzGeometryMatchesTables holds the zone-run geometry to the
// per-cylinder tables at fuzzed LBAs and transfer lengths on every model
// of geometryModels.
func FuzzGeometryMatchesTables(f *testing.F) {
	f.Add(uint8(0), uint64(0), uint32(1))
	f.Add(uint8(0), uint64(1082177), uint32(2))
	f.Add(uint8(3), uint64(624978679), uint32(100000))
	f.Add(uint8(5), uint64(3906221), uint32(1))
	f.Fuzz(func(t *testing.T, model uint8, lba uint64, n uint32) {
		models := geometryModels()
		i := int(model) % len(models)
		g, ref := geometryFor(models[i]), refGeometries()[i]
		checkGeometry(t, g, ref, int64(lba%uint64(g.sectors())), 1+int64(n%200000))
	})
}

// TestCylinderOfMatchesBinarySearch checks the zone lookup against the
// reference binary search over the cylinder tables on every model: the
// first and last LBA of every cylinder, plus seeded random LBAs.
func TestCylinderOfMatchesBinarySearch(t *testing.T) {
	for i, m := range geometryModels() {
		t.Run(m.Name, func(t *testing.T) {
			g, ref := geometryFor(m), refGeometries()[i]
			check := func(lba int64) {
				got, _ := g.cylinderOf(lba, g.zoneOf(lba))
				if want := ref.cylinderOf(lba); got != want {
					t.Fatalf("cylinderOf(%d) = %d, binary search says %d", lba, got, want)
				}
			}
			for c := 0; c < m.Cylinders; c++ {
				check(ref.cumSector[c])
				check(ref.cumSector[c+1] - 1)
			}
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 100000; i++ {
				check(rng.Int63n(g.sectors()))
			}
		})
	}
}

// TestZoneIndexStepBound pins the bucket sizing the lookup's cost rests
// on: no bucket spans more than four of the smallest zones, so a lookup
// steps over at most four zone boundaries.
func TestZoneIndexStepBound(t *testing.T) {
	for _, m := range geometryModels() {
		g := geometryFor(m)
		minZone := g.sectors()
		for z := range g.zones[1:] {
			minZone = min(minZone, g.zones[z+1].lba-g.zones[z].lba)
		}
		bucket := int64(1) << g.zoneShift
		if bucket > 4*minZone || 2*bucket <= 4*minZone {
			t.Errorf("%s: bucket of %d sectors for a smallest zone of %d", m.Name, bucket, minZone)
		}
		for b := range g.zoneIdx {
			lo, hi := int64(b)<<g.zoneShift, min(int64(b+1)<<g.zoneShift, g.sectors())-1
			if steps := g.zoneOf(hi) - int(g.zoneIdx[b]); steps > 4 || g.zoneOf(lo) != int(g.zoneIdx[b]) {
				t.Fatalf("%s: bucket %d steps over %d zone boundaries", m.Name, b, steps)
			}
		}
	}
}

// TestServiceAcrossCylinderBoundaries services requests that straddle
// one to three cylinder boundaries and checks the head ends on the
// cylinder of the last sector, the transfer time matches the reference
// per-cylinder walk, and the whole service time adds up from the parts.
func TestServiceAcrossCylinderBoundaries(t *testing.T) {
	for _, m := range []Model{HitachiUltrastar15K450(), DemoSmall()} {
		t.Run(m.Name, func(t *testing.T) {
			d := MustNew(m)
			g, ref := d.geo, newCylGeometry(&m)
			cum := ref.cumSector
			rng := rand.New(rand.NewSource(5))
			var now time.Duration
			for i := 0; i < 2000; i++ {
				c := 1 + rng.Intn(m.Cylinders-4)
				lba := cum[c] - 1 - rng.Int63n(cum[c]-cum[c-1])
				cross := 1 + rng.Intn(3) // boundaries to cross
				end := cum[c+cross-1] + 1 + rng.Int63n(cum[c+cross]-cum[c+cross-1]-1)
				req := Request{Op: OpVerify, LBA: lba, Sectors: end - lba}

				z := g.zoneOf(lba)
				cyl, left := g.cylinderOf(lba, z)
				transfer, last := g.transferTime(req.Sectors, left, z, cyl)
				if want, _ := ref.transferTime(lba, req.Sectors, ref.cylinderOf(lba)); transfer != want {
					t.Fatalf("transferTime(%d, %d) = %v, reference walk %v", lba, req.Sectors, transfer, want)
				}
				if want := ref.cylinderOf(end - 1); last != want {
					t.Fatalf("transfer of [%d, %d) ended on cylinder %d, want %d", lba, end, last, want)
				}

				atTrack := now + m.CommandOverhead + g.seekTime(d.st.HeadCyl, cyl)
				want := atTrack + g.rotWait(atTrack, g.angleOf(lba, z)) + transfer + m.CompletionOverhead
				res, err := d.Service(req, now)
				if err != nil {
					t.Fatal(err)
				}
				if res.Done != want {
					t.Fatalf("Service([%d, %d)) done at %v, parts add up to %v", lba, end, res.Done, want)
				}
				if want := ref.cylinderOf(end - 1); d.st.HeadCyl != want {
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
