package disk

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// scanCache is the reference cache: the linear-scan implementation the
// start-sorted index replaced. contains and fill take the first matching
// segment in slice order, fill evicts the lowest lastUse (first on ties),
// and invalidate keeps the survivors in order.
type scanCache struct {
	segments    []segment
	maxSegments int
	segBytes    int64
	clock       uint64
}

func (c *scanCache) contains(lba, n int64) bool {
	for i := range c.segments {
		s := &c.segments[i]
		if lba >= s.start && lba+n <= s.end {
			c.clock++
			s.lastUse = c.clock
			return true
		}
	}
	return false
}

func (c *scanCache) fill(lba, n, readahead, diskSectors int64) {
	end := lba + n + readahead
	if end > diskSectors {
		end = diskSectors
	}
	start := lba
	if end-start > c.segBytes {
		start = end - c.segBytes
	}
	if end <= start {
		return
	}
	c.clock++
	for i := range c.segments {
		s := &c.segments[i]
		if start <= s.end && end >= s.start {
			if start < s.start {
				s.start = start
			}
			if end > s.end {
				s.end = end
			}
			if s.end-s.start > c.segBytes {
				s.start = s.end - c.segBytes
			}
			s.lastUse = c.clock
			return
		}
	}
	if len(c.segments) < c.maxSegments {
		c.segments = append(c.segments, segment{start: start, end: end, lastUse: c.clock})
		return
	}
	victim := 0
	for i := 1; i < len(c.segments); i++ {
		if c.segments[i].lastUse < c.segments[victim].lastUse {
			victim = i
		}
	}
	c.segments[victim] = segment{start: start, end: end, lastUse: c.clock}
}

func (c *scanCache) invalidate(lba, n int64) {
	out := c.segments[:0]
	for _, s := range c.segments {
		if lba+n <= s.start || lba >= s.end {
			out = append(out, s)
		}
	}
	c.segments = out
}

// checkIndex verifies idx is a permutation of the segment slots sorted by
// start.
func checkIndex(c *cache) string {
	if len(c.idx) != len(c.segments) {
		return "index and segments differ in length"
	}
	seen := make([]bool, len(c.segments))
	for k, i := range c.idx {
		if i < 0 || int(i) >= len(c.segments) || seen[i] {
			return "index is not a permutation of the slots"
		}
		seen[i] = true
		if k > 0 && c.segments[c.idx[k-1]].start > c.segments[i].start {
			return "index out of start order"
		}
	}
	return ""
}

// cacheShapes counts the situations a random stream must have reached for
// the differential test to mean anything.
type cacheShapes struct {
	overlapping, adjacent, touchLeft, segClip, diskClip, evictions, drops int
}

// TestCacheIndexMatchesScan drives the indexed cache and the scan
// reference through the same random operation streams and requires the
// same hit result, segment slice (order, ranges, lastUse) and clock after
// every operation.
func TestCacheIndexMatchesScan(t *testing.T) {
	const (
		segBytes    = 64
		diskSectors = 4096
	)
	var shapes cacheShapes
	for _, maxSegs := range []int{1, 2, 16, 32, 33, 64} {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewSource(int64(maxSegs*1000 + trial)))
			m := Model{CacheBytes: int64(maxSegs) * segBytes * SectorSize, CacheSegments: maxSegs}
			got := newCache(&m)
			want := &scanCache{maxSegments: maxSegs, segBytes: segBytes}
			if got.segBytes != segBytes {
				t.Fatalf("segBytes = %d, want %d", got.segBytes, segBytes)
			}
			// The stream works on a narrow band so segments meet, touch and
			// overlap; LBAs snap to a coarse grid or to a segment's end.
			band := int64(segBytes * (2 + rng.Intn(4*maxSegs+2)))
			lbaFor := func() int64 {
				switch rng.Intn(4) {
				case 0:
					if len(want.segments) > 0 {
						return min(want.segments[rng.Intn(len(want.segments))].end, diskSectors-1)
					}
				case 1:
					return diskSectors - 1 - rng.Int63n(2*segBytes)
				}
				return (diskSectors - band + rng.Int63n(band)) / 8 * 8
			}
			for op := 0; op < 400; op++ {
				lba := lbaFor()
				n := 1 + rng.Int63n(2*segBytes)
				var hitGot, hitWant bool
				switch k := rng.Intn(10); {
				case k < 4:
					hitGot, hitWant = got.contains(lba, n), want.contains(lba, n)
				case k < 8:
					ra := rng.Int63n(segBytes)
					if len(want.segments) > 0 && rng.Intn(4) == 0 {
						// End the fill exactly where a segment starts.
						if s := want.segments[rng.Intn(len(want.segments))]; s.start-n-ra >= 0 {
							lba = s.start - n - ra
							shapes.touchLeft++
						}
					}
					if n+ra > segBytes {
						shapes.segClip++
					}
					if lba+n+ra > diskSectors {
						shapes.diskClip++
					}
					if len(want.segments) == maxSegs {
						shapes.evictions++
					}
					got.fill(lba, n, ra, diskSectors)
					want.fill(lba, n, ra, diskSectors)
				case k < 9:
					before := len(want.segments)
					got.invalidate(lba, n)
					want.invalidate(lba, n)
					shapes.drops += before - len(want.segments)
				default:
					if rng.Intn(8) == 0 {
						got.reset()
						want.segments = want.segments[:0]
					}
				}
				if hitGot != hitWant {
					t.Fatalf("segs %d trial %d op %d: hit %v, scan says %v", maxSegs, trial, op, hitGot, hitWant)
				}
				if got.clock != want.clock || !reflect.DeepEqual(append([]segment{}, got.segments...), append([]segment{}, want.segments...)) {
					t.Fatalf("segs %d trial %d op %d:\nindexed clock %d %v\nscan    clock %d %v",
						maxSegs, trial, op, got.clock, got.segments, want.clock, want.segments)
				}
				if msg := checkIndex(got); msg != "" {
					t.Fatalf("segs %d trial %d op %d: %s", maxSegs, trial, op, msg)
				}
				for i, a := range want.segments {
					for _, b := range want.segments[i+1:] {
						if a.start < b.end && b.start < a.end {
							shapes.overlapping++
						}
						if a.end == b.start || b.end == a.start {
							shapes.adjacent++
						}
					}
				}
			}
		}
	}
	if shapes.overlapping == 0 || shapes.adjacent == 0 || shapes.touchLeft == 0 || shapes.segClip == 0 ||
		shapes.diskClip == 0 || shapes.evictions == 0 || shapes.drops == 0 {
		t.Fatalf("the streams missed a case: %+v", shapes)
	}
}

// TestCacheIndexSurvivesRestore round-trips a Disk through SaveState and
// RestoreState, into a fresh disk and into one whose cache held other
// segments, and requires all three to serve an identical command stream
// identically afterwards: a stale or missing index would miss hits the
// original serves.
func TestCacheIndexSurvivesRestore(t *testing.T) {
	m := DemoSmall()
	rng := rand.New(rand.NewSource(3))
	ops := [...]Op{OpRead, OpRead, OpRead, OpWrite, OpVerify}
	span := MustNew(m).Sectors() / 64
	req := func() Request {
		// A narrow band keeps the cache hitting.
		return Request{Op: ops[rng.Intn(len(ops))], LBA: rng.Int63n(span), Sectors: 1 + rng.Int63n(256)}
	}
	orig, used := MustNew(m), MustNew(m)
	var now time.Duration
	for i := 0; i < 3000; i++ {
		res, err := orig.Service(req(), now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Done
		if _, err := used.Service(Request{Op: OpRead, LBA: span + rng.Int63n(span), Sectors: 64}, now); err != nil {
			t.Fatal(err)
		}
	}
	st := saved(orig)
	if len(st.CacheSegs) < 2 {
		t.Fatalf("stream left %d cache segments; want several", len(st.CacheSegs))
	}
	fresh := MustNew(m)
	fresh.RestoreState(st)
	used.RestoreState(st)
	hits := 0
	for i := 0; i < 3000; i++ {
		r := req()
		want, err := orig.Service(r, now)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range []*Disk{fresh, used} {
			got, err := d.Service(r, now)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("command %d %+v: restored disk %+v, original %+v", i, r, got, want)
			}
		}
		if want.CacheHit {
			hits++
		}
		now = want.Done
	}
	if hits == 0 {
		t.Fatal("no cache hits after the restore; the round trip proves nothing")
	}
	for _, d := range []*Disk{fresh, used} {
		if !reflect.DeepEqual(saved(d), saved(orig)) {
			t.Fatal("restored disk state diverged from the original")
		}
		if msg := checkIndex(d.cache); msg != "" {
			t.Fatal(msg)
		}
	}
}

// saved returns a copy of d's state.
func saved(d *Disk) *State {
	var st State
	d.SaveState(&st)
	return &st
}

// BenchmarkCacheMissFill times the disk cache on replay's random-read
// pattern: a lookup that misses, then the fill that evicts a segment of
// the Ultrastar's full 32-segment cache.
func BenchmarkCacheMissFill(b *testing.B) {
	m := HitachiUltrastar15K450()
	d := MustNew(m)
	c, sectors := d.cache, d.Sectors()
	const n = 16
	ra := m.ReadAheadBytes / SectorSize
	rng := rand.New(rand.NewSource(1))
	var lbas [4096]int64
	for i := range lbas {
		lbas[i] = rng.Int63n(sectors - n)
	}
	for _, lba := range lbas[:m.CacheSegments] {
		c.fill(lba, n, ra, sectors)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := lbas[i%len(lbas)]
		if !c.contains(lba, n) {
			c.fill(lba, n, ra, sectors)
		}
	}
}
