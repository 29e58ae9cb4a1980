package iosched

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestQueueDepthCountsMerges runs every elevator New builds through an
// instrumented block queue, on bursts of LBA-adjacent requests that its
// back-merges absorb, and reads blockdev.queue_depth against Pending
// plus the request in flight after every submit and every completion.
// A barrier's own submit and completion are skipped: the gauge samples
// before the barrier starts and before it leaves its slot. The next
// sample still covers the requests its release hands the elevator,
// merges included.
func TestQueueDepthCountsMerges(t *testing.T) {
	for _, name := range []string{"noop", "deadline", "cfq", "bsa", "bsa-repair"} {
		t.Run(name, func(t *testing.T) {
			merged := 0
			for trial := 0; trial < 10; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)))
				sched, err := New(name)
				if err != nil {
					t.Fatal(err)
				}
				s := sim.New()
				q := blockdev.NewQueue(s, disk.MustNew(disk.FujitsuMAX3073RC()), sched)
				reg := obs.New()
				q.Instrument(reg)
				depth := reg.Gauge("blockdev.queue_depth")
				check := func(when string) {
					want := int64(q.Pending())
					if q.Inflight() != nil {
						want++
					}
					if got := depth.Value(); got != want {
						t.Fatalf("trial %d: after %s, queue_depth %d, want %d (pending plus in flight)", trial, when, got, want)
					}
				}
				done, lastBarrier := 0, false
				onDone := func(r *blockdev.Request) {
					done++
					merged += r.MergedCount()
					if lastBarrier = r.Barrier; !r.Barrier {
						check("a completion")
					}
				}
				n := 100 + rng.Intn(200)
				for i := 0; i < n; i++ {
					// Bursts at a few instants keep the elevator full, and
					// 8-sector requests on an 8-sector grid often abut.
					at := time.Duration(rng.Intn(5)) * 200 * time.Millisecond
					s.Schedule(at, func(any, time.Duration) {
						r := q.GetRequest()
						r.Op = disk.OpRead
						if rng.Intn(4) == 0 {
							r.Op = disk.OpWrite
						}
						r.LBA = int64(rng.Intn(32)) * 8
						r.Sectors = 8
						r.Origin = blockdev.Foreground
						if rng.Intn(3) == 0 {
							r.Origin = blockdev.Scrub
						}
						r.Class = blockdev.Class(1 + rng.Intn(3))
						r.Tag = rng.Intn(2)
						r.Barrier = rng.Intn(25) == 0
						r.OnComplete = onDone
						q.Submit(r)
						if !r.Barrier {
							check("a submit")
						}
					}, nil)
				}
				if err := s.Run(); err != nil {
					t.Fatal(err)
				}
				if done != n {
					t.Fatalf("trial %d: %d of %d requests completed", trial, done, n)
				}
				if !lastBarrier {
					check("the drain")
				}
			}
			if merged == 0 {
				t.Fatal("no request was merged; the test does not reach AbsorbMerge")
			}
			t.Logf("%d requests merged", merged)
		})
	}
}
