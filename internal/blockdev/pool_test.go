package blockdev

// Tests for the queue's request free list (ISSUE 4): the poison regression
// test pins Request.reset against stale-field leaks, and the conservation
// property drives randomized open-loop workloads — spanning cache hits,
// medium errors, retries, and merges — asserting that every submitted
// request is accounted for exactly once as completed or failed.

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/sim"
)

// poolFIFO is an in-package FIFO elevator stub (package iosched cannot be
// imported here: it depends on blockdev).
type poolFIFO struct {
	q []*Request
}

func (f *poolFIFO) Add(r *Request, _ time.Duration) { f.q = append(f.q, r) }

func (f *poolFIFO) Next(time.Duration) (*Request, time.Duration) {
	if len(f.q) == 0 {
		return nil, 0
	}
	r := f.q[0]
	f.q = f.q[1:]
	return r, 0
}

func (f *poolFIFO) OnComplete(*Request, time.Duration) {}
func (f *poolFIFO) Len() int                           { return len(f.q) }

// mergingFIFO is poolFIFO plus greedy back-merging: an added request whose
// LBA continues the tail's extent is absorbed, like a real elevator.
type mergingFIFO struct {
	poolFIFO
}

func (f *mergingFIFO) Add(r *Request, now time.Duration) {
	if n := len(f.q); n > 0 {
		tail := f.q[n-1]
		if !r.Barrier && tail.Op == r.Op && tail.LBA+tail.Sectors == r.LBA {
			tail.AbsorbMerge(r)
			return
		}
	}
	f.poolFIFO.Add(r, now)
}

// poisonRequest fills every producer- and queue-written field with garbage,
// simulating the worst possible state a request can accumulate in flight.
func poisonRequest(r *Request) {
	r.Op = disk.OpWrite
	r.LBA = 123456
	r.Sectors = 64
	r.Class = ClassIdle
	r.Origin = Scrub
	r.Tag = 9
	r.Barrier = true
	r.BypassCache = true
	r.ID = 777
	r.OnComplete = func(*Request) { panic("stale OnComplete leaked through pool reuse") }
	r.Submit = time.Hour
	r.Dispatch = 2 * time.Hour
	r.Done = 3 * time.Hour
	r.Collision = true
	r.CacheHit = true
	r.LSEs = []int64{1, 2, 3}
	r.Err = &disk.MediumError{LBAs: []int64{42}}
	r.Retries = 5
	r.seq = 99
	r.mergeOf = append(r.mergeOf, &Request{LBA: 555})
}

// TestPooledRequestPoisoned is the stale-field-leak regression test: a
// pooled request is poisoned in every field, recycled, and the next
// GetRequest must hand back an object indistinguishable from a fresh one.
func TestPooledRequestPoisoned(t *testing.T) {
	s := sim.New()
	q := NewQueue(s, disk.MustNew(disk.HitachiUltrastar15K450()), &poolFIFO{})

	r := q.GetRequest()
	poisonRequest(r)
	q.putRequest(r)

	got := q.GetRequest()
	if got != r {
		t.Fatal("free list did not return the recycled request")
	}
	if got.Op != 0 || got.LBA != 0 || got.Sectors != 0 || got.Class != 0 ||
		got.Origin != 0 || got.Tag != 0 || got.Barrier || got.BypassCache || got.ID != 0 {
		t.Fatalf("identity fields leaked through reuse: %+v", got)
	}
	if got.OnComplete != nil {
		t.Fatal("OnComplete leaked through reuse")
	}
	if got.Submit != 0 || got.Dispatch != 0 || got.Done != 0 {
		t.Fatalf("timestamps leaked through reuse: %+v", got)
	}
	if got.Collision || got.CacheHit || got.LSEs != nil || got.Err != nil || got.Retries != 0 {
		t.Fatalf("result fields leaked through reuse: %+v", got)
	}
	if got.seq != 0 {
		t.Fatalf("seq leaked through reuse: %d", got.seq)
	}
	if len(got.mergeOf) != 0 {
		t.Fatalf("mergeOf leaked through reuse: %d entries", len(got.mergeOf))
	}
	// The retained mergeOf backing array must hold no stale pointers that
	// would keep absorbed requests reachable.
	if m := got.mergeOf[:cap(got.mergeOf)]; len(m) > 0 && m[0] != nil {
		t.Fatal("mergeOf backing array retains a stale request pointer")
	}
	if !got.pooled {
		t.Fatal("recycled request lost its pooled mark")
	}
}

// TestPooledRequestPoisonedThroughQueue runs the poison check through a
// real completion: a pooled request completes (recycling it), every field
// is then poisoned via the retained pointer, and the next pooled request
// the producer gets must still be clean.
func TestPooledRequestPoisonedThroughQueue(t *testing.T) {
	s := sim.New()
	q := NewQueue(s, disk.MustNew(disk.HitachiUltrastar15K450()), &poolFIFO{})

	r := q.GetRequest()
	r.Op = disk.OpRead
	r.LBA = 2048
	r.Sectors = 8
	r.Origin = Foreground
	completed := false
	r.OnComplete = func(req *Request) { completed = true }
	q.Submit(r)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !completed {
		t.Fatal("request never completed")
	}
	poisonRequest(r) // producer misbehaving after recycle: must not leak forward

	// Strip the panic-bomb the queue would legitimately keep: reset only
	// happens inside putRequest, so re-pool it the supported way.
	q.freeReqs = q.freeReqs[:0]
	q.putRequest(r)
	got := q.GetRequest()
	if got.LBA != 0 || got.Err != nil || got.LSEs != nil || got.OnComplete != nil || got.Done != 0 {
		t.Fatalf("poisoned fields survived queue recycling: %+v", got)
	}
}

// TestPropertyRequestConservation is the conservation invariant across
// randomized workloads: submitted == completed, completed splits exactly
// into succeeded + failed, and, on the odd trials' instrumented queues,
// after every submit and completion the queue's held count (what
// blockdev.queue_depth reports) equals Pending plus the request in
// flight. Trials randomize the scheduler, retry
// policy, LSE population, cache mode, request mix (reads, writes, verifies,
// pooled and caller-owned, barriers) and arrival pattern.
func TestPropertyRequestConservation(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		s := sim.New()
		d := disk.MustNew(disk.FujitsuMAX3073RC())
		if rng.Intn(2) == 0 {
			d.SetCacheEnabled(false)
		}
		var sched Scheduler
		if rng.Intn(2) == 0 {
			sched = &poolFIFO{}
		} else {
			sched = &mergingFIFO{}
		}
		q := NewQueue(s, d, sched)
		instrumented := trial%2 == 1
		if instrumented {
			q.Instrument(obs.New())
		}
		if rng.Intn(2) == 0 {
			q.SetRetryPolicy(RetryPolicy{
				MaxRetries: rng.Intn(3),
				Backoff:    time.Duration(rng.Intn(5)) * time.Millisecond,
				Timeout:    time.Duration(rng.Intn(2)) * 200 * time.Millisecond,
			})
		}
		// Sprinkle latent sector errors over the low LBA range the workload
		// targets so that some requests fail or retry.
		for i := 0; i < 40; i++ {
			d.InjectLSE(int64(rng.Intn(1 << 16)))
		}

		n := 50 + rng.Intn(400)
		var submitted, succeeded, failed int
		checkHeld := func(when string) {
			if !instrumented {
				return
			}
			want := int64(q.Pending())
			if q.inflight != nil {
				want++
			}
			if q.held != want {
				t.Fatalf("trial %d: after %s, held %d, want %d (pending plus in flight)", trial, when, q.held, want)
			}
		}
		onDone := func(r *Request) {
			checkHeld("a completion")
			if r.Err != nil {
				failed++
			} else {
				succeeded++
			}
		}
		for i := 0; i < n; i++ {
			at := time.Duration(rng.Intn(2000)) * time.Millisecond
			s.Schedule(at, func(arg any, _ time.Duration) {
				var r *Request
				if rng.Intn(2) == 0 {
					r = q.GetRequest()
				} else {
					r = &Request{}
				}
				r.Op = disk.OpRead
				if p := rng.Intn(10); p == 0 {
					r.Op = disk.OpWrite
				} else if p == 1 {
					r.Op = disk.OpVerify
				}
				r.LBA = int64(rng.Intn(1 << 16))
				r.Sectors = int64(1 + rng.Intn(256))
				r.Origin = Foreground
				if rng.Intn(4) == 0 {
					r.Origin = Scrub
				}
				r.Class = Class(1 + rng.Intn(3))
				r.Tag = rng.Intn(2)
				r.Barrier = rng.Intn(20) == 0
				r.OnComplete = onDone
				submitted++
				q.Submit(r)
				checkHeld("a submit")
			}, nil)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}

		if submitted != n {
			t.Fatalf("trial %d: scheduled %d submissions, ran %d", trial, n, submitted)
		}
		if succeeded+failed != submitted {
			t.Fatalf("trial %d: conservation violated: submitted=%d succeeded=%d failed=%d",
				trial, submitted, succeeded, failed)
		}
		st := q.Stats()
		if got := st.Completed[Foreground-1] + st.Completed[Scrub-1]; got != int64(submitted) {
			t.Fatalf("trial %d: queue stats count %d completions for %d submissions", trial, got, submitted)
		}
		if got := st.Submitted[Foreground-1] + st.Submitted[Scrub-1]; got != int64(submitted) {
			t.Fatalf("trial %d: queue stats count %d submissions for %d", trial, got, submitted)
		}
		if !q.Idle() {
			t.Fatalf("trial %d: queue not idle after drain", trial)
		}
		checkHeld("the drain")
	}
}

// TestPooledRequestsAcrossMerges drives a merge-heavy sequential workload
// through CFQ with pooled requests and checks both conservation and that
// absorbed pooled requests are recycled (no pool leak).
func TestPooledRequestsAcrossMerges(t *testing.T) {
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	q := NewQueue(s, d, &mergingFIFO{})

	const n = 512
	done := 0
	onDone := func(r *Request) { done++ }
	lba := int64(0)
	for i := 0; i < n; i++ {
		i := i
		s.Schedule(time.Duration(i/8)*500*time.Microsecond, func(any, time.Duration) {
			r := q.GetRequest()
			r.Op = disk.OpRead
			r.LBA = lba
			r.Sectors = 8
			lba += 8 // strictly sequential: maximal back-merge pressure
			r.Origin = Foreground
			r.OnComplete = onDone
			q.Submit(r)
		}, nil)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != n {
		t.Fatalf("completed %d of %d pooled requests", done, n)
	}
	st := q.Stats()
	if st.Completed[Foreground-1] != n {
		t.Fatalf("stats count %d completions, want %d", st.Completed[Foreground-1], n)
	}
	// Every pooled request must be back on the free list: none lost inside
	// merge bookkeeping, none double-freed (list longer than distinct
	// objects would show up as duplicates delivering aliased requests).
	if len(q.freeReqs) == 0 {
		t.Fatal("free list empty after drain: pooled requests leaked")
	}
	seen := map[*Request]bool{}
	for _, r := range q.freeReqs {
		if seen[r] {
			t.Fatal("request double-freed to the pool")
		}
		seen[r] = true
	}
}
