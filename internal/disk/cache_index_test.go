package disk

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"
)

// scanCache is the reference cache: the linear-scan implementation the
// cell table and LRU list stand in for. contains and fill take the first
// matching segment in slice order, fill evicts the lowest lastUse (first
// on ties), and invalidate keeps the survivors in order.
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

// checkCache verifies the cache's structures against its segments: every
// slot is filed in the table exactly once, under the cell of its start
// and reachable from that cell's home without crossing a free entry, and
// the LRU list holds the slots in (lastUse, slot) order.
func checkCache(c *cache) string {
	n := len(c.segments)
	if n > c.maxSegments {
		return "more segments than slots"
	}
	mask := len(c.table) - 1
	filed := make([]int, n)
	for h, v := range c.table {
		if v == 0 {
			continue
		}
		i := int(v) - 1
		if i < 0 || i >= n {
			return fmt.Sprintf("table entry %d names slot %d of %d", h, i, n)
		}
		filed[i]++
		for k := c.home(c.segments[i].start >> c.shift); k != h; k = (k + 1) & mask {
			if c.table[k] == 0 {
				return fmt.Sprintf("slot %d is not reachable from its cell's home", i)
			}
		}
	}
	for i, f := range filed {
		if f != 1 {
			return fmt.Sprintf("slot %d is filed %d times", i, f)
		}
	}
	linked := make([]bool, n)
	p := int32(0)
	for k := 0; k < n; k++ {
		x := c.next[p]
		if x < 1 || int(x) > n || linked[x-1] {
			return fmt.Sprintf("LRU list position %d holds node %d of %d, or a node twice", k, x, n)
		}
		linked[x-1] = true
		if c.prev[x] != p {
			return fmt.Sprintf("node %d links back to %d, want %d", x, c.prev[x], p)
		}
		if p != 0 {
			if u, v := c.segments[p-1].lastUse, c.segments[x-1].lastUse; u > v || u == v && p > x {
				return fmt.Sprintf("LRU list puts slot %d before slot %d", p-1, x-1)
			}
		}
		p = x
	}
	if c.next[p] != 0 || c.prev[0] != p {
		return "LRU list does not close at the sentinel"
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
				if msg := checkCache(got); msg != "" {
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
		if msg := checkCache(d.cache); msg != "" {
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

// fuzzSegCounts are the cache sizes FuzzCacheMatchesScan picks from: the
// edge cases, the Ultrastar's 32 and sizes either side of a table size.
var fuzzSegCounts = [...]int{1, 2, 16, 32, 33, 64, 100}

// FuzzCacheMatchesScan decodes an operation stream from the fuzz bytes
// and runs it on the cache and on the scan reference, requiring the same
// hit result, segment slice and clock, and intact structures, after every
// operation. The first byte picks the segment count and a segment
// capacity that is not a power of two; then each five bytes are one
// contains, fill, invalidate, reset, or SaveState→RestoreState round
// trip into a second disk whose cache holds older contents; half the
// round trips coarsen the recency stamps, and the clock below them, so
// that segments tie.
func FuzzCacheMatchesScan(f *testing.F) {
	for seed := int64(0); seed < 32; seed++ {
		ops := make([]byte, 1+5*100)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runCacheDiff(t, ops)
	})
}

func runCacheDiff(t *testing.T, ops []byte) {
	if len(ops) == 0 {
		return
	}
	const diskSectors = 4096
	maxSegs := fuzzSegCounts[int(ops[0]&0x7f)%len(fuzzSegCounts)]
	segBytes := int64(48)
	if ops[0]&0x80 != 0 {
		segBytes = 100
	}
	m := Model{CacheBytes: int64(maxSegs) * segBytes * SectorSize, CacheSegments: maxSegs}
	disks := [2]*Disk{{cache: newCache(&m)}, {cache: newCache(&m)}}
	got := disks[0].cache
	want := &scanCache{maxSegments: maxSegs, segBytes: segBytes}
	// LBAs fall in a band ending at the disk's end, wide enough to hold
	// every segment twice over and reaching below sector 0 for large
	// caches; a high op bit snaps them to an existing segment instead.
	band := segBytes * int64(2+2*maxSegs)
	var st State
	for k, rest := 0, ops[1:]; len(rest) >= 5; k, rest = k+1, rest[5:] {
		op, raw := rest[0], int64(rest[1])|int64(rest[2])<<8
		n := 1 + int64(rest[3])%(2*segBytes)
		ra := int64(rest[4]) % segBytes
		lba := diskSectors - band + raw%band
		var snap *segment
		if op&0x80 != 0 && len(want.segments) > 0 {
			snap = &want.segments[int(raw)%len(want.segments)]
			lba = snap.end
		}
		var hitGot, hitWant bool
		switch kind := op & 0x7f % 16; {
		case kind < 6:
			if snap != nil && kind&1 != 0 {
				lba = snap.start
			}
			hitGot, hitWant = got.contains(lba, n), want.contains(lba, n)
		case kind < 12:
			if snap != nil && kind&1 != 0 {
				// End the fill exactly where a segment starts.
				lba = snap.start - n - ra
			}
			got.fill(lba, n, ra, diskSectors)
			want.fill(lba, n, ra, diskSectors)
		case kind < 14:
			got.invalidate(lba, n)
			want.invalidate(lba, n)
		case kind == 14:
			got.reset()
			want.segments = want.segments[:0]
		default:
			from := disks[0]
			disks[0], disks[1] = disks[1], from
			from.SaveState(&st)
			if raw&1 != 0 {
				// Coarsen the recency stamps, and the clock more, so
				// that segments tie on lastUse, with each other and with
				// the stamps to come, and the LRU order falls to the
				// slots.
				st.CacheClock /= 8
				want.clock /= 8
				for j := range st.CacheSegs {
					st.CacheSegs[j].LastUse /= 4
					want.segments[j].lastUse /= 4
				}
			}
			disks[0].RestoreState(&st)
			got = disks[0].cache
		}
		if hitGot != hitWant {
			t.Fatalf("op %d (%d, lba %d, n %d): hit %v, scan says %v", k, op, lba, n, hitGot, hitWant)
		}
		if got.clock != want.clock || !slices.Equal(got.segments, want.segments) {
			t.Fatalf("op %d (%d, lba %d, n %d):\ncache clock %d %v\nscan  clock %d %v",
				k, op, lba, n, got.clock, got.segments, want.clock, want.segments)
		}
		if msg := checkCache(got); msg != "" {
			t.Fatalf("op %d (%d, lba %d, n %d): %s", k, op, lba, n, msg)
		}
	}
}

// TestCacheZeroAlloc requires contains, fill and invalidate on a full
// cache, and a restore into a disk whose cache is in use, to allocate
// nothing.
func TestCacheZeroAlloc(t *testing.T) {
	m := HitachiUltrastar15K450()
	d := MustNew(m)
	c, sectors := d.cache, d.Sectors()
	const n = 16
	ra := m.ReadAheadBytes / SectorSize
	rng := rand.New(rand.NewSource(1))
	var lbas [256]int64
	for i := range lbas {
		lbas[i] = rng.Int63n(sectors - 1<<16)
	}
	for _, lba := range lbas[:m.CacheSegments] {
		c.fill(lba, n, ra, sectors)
	}
	i := 0
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"contains", func() { c.contains(lbas[i%len(lbas)], n) }},
		{"fill", func() { c.fill(lbas[i%len(lbas)], n, ra, sectors) }},
		{"invalidate", func() {
			c.invalidate(c.segments[i%len(c.segments)].start, n)
			c.fill(lbas[i%len(lbas)], n, ra, sectors)
		}},
	} {
		if len(c.segments) != m.CacheSegments {
			t.Fatalf("%s: cache holds %d segments, want it full", tc.name, len(c.segments))
		}
		if avg := testing.AllocsPerRun(1000, func() { tc.fn(); i++ }); avg != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, avg)
		}
	}
	st := saved(d)
	used := MustNew(m)
	for _, lba := range lbas[len(lbas)-m.CacheSegments:] {
		used.cache.fill(lba, n, ra, sectors)
	}
	if avg := testing.AllocsPerRun(100, func() { used.RestoreState(st) }); avg != 0 {
		t.Errorf("RestoreState: %v allocs/op, want 0", avg)
	}
}

// BenchmarkCacheWriteInvalidate times replay's read-and-write pattern on
// the Ultrastar's 32-segment cache: a read that misses and fills, then a
// write that drops the segment a read eight commands earlier filled, as
// TPC-C's writes drop cached segments.
func BenchmarkCacheWriteInvalidate(b *testing.B) {
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
		c.invalidate(lbas[(i+len(lbas)-8)%len(lbas)], n)
	}
}

// BenchmarkCacheSequentialRead times the cache under a sequential
// stream of 64 KB reads on the Ultrastar, seven of eight of which hit
// the segment the readahead of the eighth filled: the hit path that the
// synthetic sequential workloads take.
func BenchmarkCacheSequentialRead(b *testing.B) {
	m := HitachiUltrastar15K450()
	d := MustNew(m)
	c, sectors := d.cache, d.Sectors()
	const n = 128
	ra := m.ReadAheadBytes / SectorSize
	var lba int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%128 == 0 { // an 8 MB chunk at a new place
			lba = int64(i) * 7919 % (sectors / 2) &^ 7
		}
		if !c.contains(lba, n) {
			c.fill(lba, n, ra, sectors)
		}
		lba += n
	}
}
