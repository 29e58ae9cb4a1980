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

// BenchmarkCFQ times one add/next/complete cycle over a BE and an Idle
// tag: two requests in, two dispatched and completed.
func BenchmarkCFQ(b *testing.B) {
	step := cfqCycle(NewCFQ())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
