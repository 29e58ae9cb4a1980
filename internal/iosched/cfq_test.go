package iosched

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/sim"
)

// TestCFQZeroClassCompletes pins the zero-class fix: a request whose
// Class was never set is served as best-effort, so it completes and the
// queue drains instead of holding it forever.
func TestCFQZeroClassCompletes(t *testing.T) {
	s := sim.New()
	cfq := NewCFQ()
	q := blockdev.NewQueue(s, disk.MustNew(disk.DemoSmall()), cfq)
	done := 0
	for i := int64(0); i < 3; i++ {
		q.Submit(&blockdev.Request{
			Op: disk.OpRead, LBA: i * 4096, Sectors: 8, Origin: blockdev.Foreground,
			OnComplete: func(*blockdev.Request) { done++ },
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3 || !q.Idle() || cfq.Len() != 0 {
		t.Fatalf("completed %d of 3 zero-class requests; queue idle %v, CFQ holds %d", done, q.Idle(), cfq.Len())
	}
}

// checkCFQCounts recounts the queued requests per class and compares
// the recount with the counts CFQ keeps.
func checkCFQCounts(t *testing.T, c *CFQ, step int) {
	t.Helper()
	var want [3]int
	for _, q := range c.queues {
		if len(q.sorted) > 0 {
			want[q.class-1] += len(q.sorted)
		}
	}
	if c.queued != want {
		t.Fatalf("step %d: counts %v, recount %v", step, c.queued, want)
	}
}

// TestCFQClassCountsInvariant drives CFQ through a seeded random mix of
// Add, Next and OnComplete over four tags whose classes change while
// they have requests queued (ionice), the zero class included, and
// checks the per-class counts against a recount after every step.
// The drained elevator must then survive a SaveState/RestoreState round
// trip with the same queue structure and the same dispatch order.
func TestCFQClassCountsInvariant(t *testing.T) {
	classes := []blockdev.Class{0, blockdev.ClassRT, blockdev.ClassBE, blockdev.ClassIdle}
	rng := rand.New(rand.NewSource(7))
	c := NewCFQ()
	var now time.Duration
	var inflight []*blockdev.Request
	for step := 0; step < 20000; step++ {
		now += time.Duration(rng.Intn(3000)) * time.Microsecond
		switch k := rng.Intn(10); {
		case k < 5:
			c.Add(req(rng.Intn(4), classes[rng.Intn(len(classes))], rng.Int63n(1<<20), 8), now)
		case k < 8:
			if r, _ := c.Next(now); r != nil {
				inflight = append(inflight, r)
			}
		default:
			if len(inflight) > 0 {
				c.OnComplete(inflight[0], now)
				inflight = inflight[1:]
			}
		}
		checkCFQCounts(t, c, step)
	}
	for step := 0; c.Len() > 0; step++ {
		if step > 100000 {
			t.Fatalf("CFQ did not drain: %d requests left", c.Len())
		}
		r, wake := c.Next(now)
		switch {
		case r != nil:
			c.OnComplete(r, now)
		case wake > now:
			now = wake
		default:
			now += time.Millisecond
		}
		checkCFQCounts(t, c, step)
	}

	var st, st2 CFQState
	if err := c.SaveState(&st); err != nil {
		t.Fatal(err)
	}
	back := NewCFQ()
	if err := back.RestoreState(&st); err != nil {
		t.Fatal(err)
	}
	if err := back.SaveState(&st2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("SaveState/RestoreState round trip differs:\n%+v\n%+v", st, st2)
	}
	if len(st.Order) != 4 {
		t.Fatalf("Order = %v, want all four tags", st.Order)
	}

	// Same requests into both: the dispatch order must match.
	for i := 0; i < 200; i++ {
		tag, class, lba := rng.Intn(4), classes[rng.Intn(len(classes))], rng.Int63n(1<<20)
		c.Add(req(tag, class, lba, 8), now)
		back.Add(req(tag, class, lba, 8), now)
	}
	for c.Len() > 0 || back.Len() > 0 {
		ra, wa := c.Next(now)
		rb, wb := back.Next(now)
		if (ra == nil) != (rb == nil) || wa != wb || (ra != nil && (ra.Tag != rb.Tag || ra.LBA != rb.LBA)) {
			t.Fatalf("at %v: original dispatched %+v (wake %v), restored %+v (wake %v)", now, ra, wa, rb, wb)
		}
		if ra != nil {
			c.OnComplete(ra, now)
			back.OnComplete(rb, now)
		}
		now += time.Millisecond
	}
}

// cfqCycle returns one steady-state step over two tags, foreground BE
// (tag 0) and an Idle-class scrubber (tag 1): each call adds one request
// per tag, then dispatches and completes two. Requests are reused and
// never adjacent, so nothing merges.
func cfqCycle(c *CFQ) func() {
	reqs := [2][16]*blockdev.Request{}
	for i := range reqs[0] {
		reqs[0][i] = req(0, blockdev.ClassBE, int64(i)*4096, 8)
		reqs[1][i] = req(1, blockdev.ClassIdle, int64(i)*4096+1<<30, 128)
	}
	var now time.Duration
	i := 0
	return func() {
		c.Add(reqs[0][i%16], now)
		c.Add(reqs[1][i%16], now)
		for n := 0; n < 2; {
			r, wake := c.Next(now)
			if r == nil {
				now = max(wake, now+time.Millisecond)
				continue
			}
			now += 5 * time.Millisecond
			c.OnComplete(r, now)
			n++
		}
		i++
	}
}

// TestCFQSteadyStateAllocs pins CFQ's add/dispatch/complete cycle at
// zero allocations once the per-tag queues exist.
func TestCFQSteadyStateAllocs(t *testing.T) {
	c := NewCFQ()
	step := cfqCycle(c)
	step() // creates both queues
	if avg := testing.AllocsPerRun(2000, step); avg != 0 {
		t.Fatalf("CFQ cycle allocates %.2f per run, want 0", avg)
	}
}

// cfqDiffStats counts the situations a differential stream reached.
type cfqDiffStats struct {
	dispatched   int
	equalLBA     int // adds at an LBA the tag already has queued
	merged       int // back merges below the size cap
	mergeEdge    int // back merges reaching MaxMergeSectors exactly
	mergeCapped  int // adjacent adds refused because of the cap
	classChanges int // a tag changing class with requests queued
	gateWaits    int // idle-class work held by the idle gate
}

// runCFQDiff drives CFQ and ascCFQ, the ascending reference, through
// the operation stream ops, four bytes per operation, and fails at the
// first dispatch or wake time where they differ. Requests come in twins,
// one per elevator, numbered by creation; a dispatch must return twins
// of the same size. The stream ends with both elevators drained.
func runCFQDiff(t *testing.T, ops []byte) cfqDiffStats {
	classes := [...]blockdev.Class{0, blockdev.ClassRT, blockdev.ClassBE, blockdev.ClassIdle}
	// 512+512 and 1016+8 merge at the cap; 512+520 and 1016+16 do not.
	sizes := [...]int64{8, 16, 504, 512, 520, 1016}
	got, ref := NewCFQ(), newAscCFQ()
	idGot, idRef := map[*blockdev.Request]int{}, map[*blockdev.Request]int{}
	var inflight [][2]*blockdev.Request
	var lastEnd [3]int64
	var now time.Duration
	var st cfqDiffStats
	next := func() time.Duration {
		a, wa := got.Next(now)
		b, wb := ref.Next(now)
		if wa != wb || (a == nil) != (b == nil) || (a != nil && (idGot[a] != idRef[b] || a.Sectors != b.Sectors)) {
			t.Fatalf("at %v: CFQ dispatched #%d %+v (wake %v), ascending reference #%d %+v (wake %v)",
				now, idGot[a], a, wa, idRef[b], b, wb)
		}
		if a != nil {
			st.dispatched++
			inflight = append(inflight, [2]*blockdev.Request{a, b})
		} else if wb > now && ref.queued[blockdev.ClassIdle-1] > 0 && wb == ref.st.LastRTBEActive+ref.st.IdleGate {
			st.gateWaits++
		}
		return wa
	}
	complete := func(i int) {
		pair := inflight[i]
		inflight = append(inflight[:i], inflight[i+1:]...)
		got.OnComplete(pair[0], now)
		ref.OnComplete(pair[1], now)
	}
	for ; len(ops) >= 4; ops = ops[4:] {
		a, b, c, d := ops[0], ops[1], ops[2], ops[3]
		switch k := a % 10; {
		case k < 5:
			tag, class := int(b%3), classes[(b/3)%4]
			lba := int64(c/4%16) * 512
			if c%4 == 0 {
				lba = lastEnd[tag] // back to back with the tag's last add
			}
			op := disk.OpRead
			if d&0x80 != 0 {
				op = disk.OpWrite
			}
			r := &blockdev.Request{Op: op, LBA: lba, Sectors: sizes[int(d&0x7f)%len(sizes)], Class: class, Tag: tag}
			twin := *r
			idGot[r], idRef[&twin] = len(idGot), len(idRef)
			lastEnd[tag] = lba + r.Sectors
			if i := ref.index(tag); i >= 0 {
				q := ref.queues[i]
				if len(q.sorted) > 0 && q.class != cfqClass(class) {
					st.classChanges++
				}
				var below *blockdev.Request // the ascending merge candidate
				for _, p := range q.sorted {
					if p.LBA == lba {
						st.equalLBA++
					}
					if p.LBA < lba {
						below = p
					}
				}
				if below != nil && below.Op == op && below.LBA+below.Sectors == lba {
					switch sum := below.Sectors + r.Sectors; {
					case sum < MaxMergeSectors:
						st.merged++
					case sum == MaxMergeSectors:
						st.mergeEdge++
					default:
						st.mergeCapped++
					}
				}
			}
			got.Add(r, now)
			ref.Add(&twin, now)
			if got.Len() != ref.Len() {
				t.Fatalf("at %v: CFQ holds %d requests, ascending reference %d", now, got.Len(), ref.Len())
			}
		case k < 8:
			now += time.Duration(b) * 50 * time.Microsecond
			next()
		case k < 9:
			if len(inflight) > 0 {
				complete(int(b) % len(inflight))
			}
		default:
			now += time.Duration(b) * 200 * time.Microsecond
		}
	}
	for step := 0; got.Len() > 0 || ref.Len() > 0 || len(inflight) > 0; step++ {
		if step > 100000 {
			t.Fatalf("elevators did not drain: %d and %d requests left", got.Len(), ref.Len())
		}
		for len(inflight) > 0 {
			complete(0)
		}
		if wake := next(); len(inflight) == 0 {
			now = max(wake, now+time.Millisecond)
		}
	}
	return st
}

// TestCFQMatchesAscending runs seeded random streams through runCFQDiff
// and requires them to have reached every situation the descending
// queues must reproduce: equal LBAs, back merges below and at the size
// cap and adjacent requests over it, class changes of a tag with
// requests queued, and idle-gate waits.
func TestCFQMatchesAscending(t *testing.T) {
	var total cfqDiffStats
	for seed := int64(0); seed < 40; seed++ {
		ops := make([]byte, 12000)
		rand.New(rand.NewSource(seed)).Read(ops)
		st := runCFQDiff(t, ops)
		total.dispatched += st.dispatched
		total.equalLBA += st.equalLBA
		total.merged += st.merged
		total.mergeEdge += st.mergeEdge
		total.mergeCapped += st.mergeCapped
		total.classChanges += st.classChanges
		total.gateWaits += st.gateWaits
	}
	if total.dispatched == 0 || total.equalLBA == 0 || total.merged == 0 || total.mergeEdge == 0 ||
		total.mergeCapped == 0 || total.classChanges == 0 || total.gateWaits == 0 {
		t.Fatalf("the streams missed a case: %+v", total)
	}
	t.Logf("%+v", total)
}

// FuzzCFQMatchesAscending holds CFQ's descending per-tag queues to the
// ascending reference on fuzzed Add/Next/OnComplete streams.
func FuzzCFQMatchesAscending(f *testing.F) {
	for seed := int64(0); seed < 4; seed++ {
		ops := make([]byte, 800)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		runCFQDiff(t, ops)
	})
}

// BenchmarkCFQ times the elevator's add/dispatch/complete cycle.
// two-tags: a BE and an Idle tag, two requests in, two dispatched and
// completed. deep-192: one BE tag holding 192 requests at random LBAs,
// replay-busy's measured queue depth; each cycle adds one request and
// dispatches and completes one.
func BenchmarkCFQ(b *testing.B) {
	b.Run("two-tags", func(b *testing.B) {
		step := cfqCycle(NewCFQ())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			step()
		}
	})
	b.Run("deep-192", func(b *testing.B) {
		const depth = 192
		c := NewCFQ()
		rng := rand.New(rand.NewSource(1))
		var lbas [4096]int64
		for i := range lbas {
			lbas[i] = rng.Int63n(1<<29) &^ 7 // 8-sector requests never touch
		}
		free := make([]*blockdev.Request, 0, depth+1)
		for i := 0; i <= depth; i++ {
			free = append(free, req(0, blockdev.ClassBE, 0, 8))
		}
		var now time.Duration
		add := func(i int) {
			r := free[len(free)-1]
			free = free[:len(free)-1]
			r.LBA = lbas[i%len(lbas)]
			c.Add(r, now)
		}
		for i := 0; i < depth; i++ {
			add(i)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			add(depth + i)
			r, wake := c.Next(now)
			for r == nil {
				now = max(wake, now+time.Millisecond)
				r, wake = c.Next(now)
			}
			now += 5 * time.Millisecond
			c.OnComplete(r, now)
			free = append(free, r)
		}
	})
}
