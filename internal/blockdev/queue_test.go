package blockdev_test

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/sim"
)

// fifoSched is a minimal FIFO scheduler for exercising the queue in
// isolation from package iosched.
type fifoSched struct {
	q []*blockdev.Request
}

func (f *fifoSched) Add(r *blockdev.Request, _ time.Duration) { f.q = append(f.q, r) }

func (f *fifoSched) Next(time.Duration) (*blockdev.Request, time.Duration) {
	if len(f.q) == 0 {
		return nil, 0
	}
	r := f.q[0]
	f.q = f.q[1:]
	return r, 0
}

func (f *fifoSched) OnComplete(*blockdev.Request, time.Duration) {}
func (f *fifoSched) Len() int                                    { return len(f.q) }

func newRig(t *testing.T) (*sim.Simulator, *blockdev.Queue) {
	t.Helper()
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	return s, blockdev.NewQueue(s, d, &fifoSched{})
}

func TestSubmitAndComplete(t *testing.T) {
	s, q := newRig(t)
	var done *blockdev.Request
	r := &blockdev.Request{
		Op: disk.OpRead, LBA: 0, Sectors: 128,
		Class: blockdev.ClassBE, Origin: blockdev.Foreground,
		OnComplete: func(r *blockdev.Request) { done = r },
	}
	q.Submit(r)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if done != r {
		t.Fatal("completion callback not fired")
	}
	if r.Done <= r.Submit {
		t.Fatalf("Done %v <= Submit %v", r.Done, r.Submit)
	}
	st := q.Stats()
	if st.Completed[blockdev.Foreground-1] != 1 || st.Bytes[blockdev.Foreground-1] != 64<<10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	s, q := newRig(t)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		q.Submit(&blockdev.Request{
			Op: disk.OpRead, LBA: int64(i * 1000), Sectors: 8,
			Origin: blockdev.Foreground,
			OnComplete: func(*blockdev.Request) {
				order = append(order, i)
			},
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestCollisionDetection(t *testing.T) {
	s, q := newRig(t)
	// A scrub request occupies the disk; a foreground arrival during its
	// service is a collision.
	scrub := &blockdev.Request{
		Op: disk.OpVerify, LBA: 0, Sectors: 2048,
		Class: blockdev.ClassBE, Origin: blockdev.Scrub, Tag: 1,
	}
	q.Submit(scrub)
	var fg *blockdev.Request
	s.After(time.Millisecond, func() {
		fg = &blockdev.Request{
			Op: disk.OpRead, LBA: 500000, Sectors: 128,
			Origin: blockdev.Foreground,
		}
		q.Submit(fg)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fg.Collision {
		t.Fatal("foreground arrival during scrub not flagged as collision")
	}
	if got := q.Stats().Collisions; got != 1 {
		t.Fatalf("Collisions = %d, want 1", got)
	}
	// Foreground must have waited for the scrub request.
	if fg.Dispatch < scrub.Done {
		t.Fatalf("fg dispatched at %v before scrub done %v", fg.Dispatch, scrub.Done)
	}
}

func TestNoCollisionBetweenForeground(t *testing.T) {
	s, q := newRig(t)
	q.Submit(&blockdev.Request{Op: disk.OpRead, LBA: 0, Sectors: 2048, Origin: blockdev.Foreground})
	var second *blockdev.Request
	s.After(time.Millisecond, func() {
		second = &blockdev.Request{Op: disk.OpRead, LBA: 9000, Sectors: 8, Origin: blockdev.Foreground}
		q.Submit(second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if second.Collision {
		t.Fatal("fg-behind-fg flagged as collision")
	}
}

func TestBarrierDrainsAndBlocks(t *testing.T) {
	s, q := newRig(t)
	var order []string
	mk := func(name string, barrier bool, lba int64) *blockdev.Request {
		return &blockdev.Request{
			Op: disk.OpRead, LBA: lba, Sectors: 64,
			Origin:  blockdev.Foreground,
			Barrier: barrier,
			OnComplete: func(*blockdev.Request) {
				order = append(order, name)
			},
		}
	}
	a := mk("a", false, 0)
	b := mk("b", true, 100000) // barrier
	cc := mk("c", false, 200)  // submitted after the barrier
	q.Submit(a)
	q.Submit(b)
	q.Submit(cc)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a", "b", "c"}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	// c must not dispatch before the barrier completes.
	if cc.Dispatch < b.Done {
		t.Fatalf("post-barrier request dispatched at %v, barrier done %v", cc.Dispatch, b.Done)
	}
	if b.Dispatch < a.Done {
		t.Fatalf("barrier dispatched at %v before queue drained at %v", b.Dispatch, a.Done)
	}
}

func TestConsecutiveBarriers(t *testing.T) {
	s, q := newRig(t)
	var order []string
	mk := func(name string, barrier bool, lba int64) *blockdev.Request {
		return &blockdev.Request{
			Op: disk.OpVerify, LBA: lba, Sectors: 64,
			Origin: blockdev.Scrub, Tag: 1, Barrier: barrier,
			OnComplete: func(*blockdev.Request) { order = append(order, name) },
		}
	}
	q.Submit(mk("b1", true, 0))
	q.Submit(mk("b2", true, 1000))
	q.Submit(mk("r", false, 2000))
	q.Submit(mk("b3", true, 3000))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b1", "b2", "r", "b3"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestIdleHookFiresOnTransition(t *testing.T) {
	s, q := newRig(t)
	var idleTimes []time.Duration
	q.SubscribeIdle(func(now time.Duration) { idleTimes = append(idleTimes, now) })
	q.Submit(&blockdev.Request{Op: disk.OpRead, LBA: 0, Sectors: 64, Origin: blockdev.Foreground})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(idleTimes) != 1 {
		t.Fatalf("idle hook fired %d times, want 1", len(idleTimes))
	}
	if !q.Idle() {
		t.Fatal("queue should be idle")
	}
	var st blockdev.QState
	if err := q.SaveState(&st, nil); err != nil {
		t.Fatal(err)
	}
	if st.IdleSince != idleTimes[0] {
		t.Fatalf("IdleSince %v != hook time %v", st.IdleSince, idleTimes[0])
	}
}

func TestSubmitHookSeesEveryRequest(t *testing.T) {
	s, q := newRig(t)
	count := 0
	q.SubscribeSubmit(func(*blockdev.Request) { count++ })
	for i := 0; i < 4; i++ {
		q.Submit(&blockdev.Request{Op: disk.OpRead, LBA: int64(i) * 128, Sectors: 8, Origin: blockdev.Foreground})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("submit hook count = %d, want 4", count)
	}
}

func TestPendingAndBusy(t *testing.T) {
	s, q := newRig(t)
	if q.Inflight() != nil || q.Pending() != 0 {
		t.Fatal("fresh queue should be empty")
	}
	q.Submit(&blockdev.Request{Op: disk.OpRead, LBA: 0, Sectors: 8, Origin: blockdev.Foreground})
	q.Submit(&blockdev.Request{Op: disk.OpRead, LBA: 1 << 20, Sectors: 8, Origin: blockdev.Foreground})
	if q.Inflight() == nil || q.Pending() != 1 {
		t.Fatalf("inflight=%v pending=%d, want a request,1", q.Inflight(), q.Pending())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Inflight() != nil || q.Pending() != 0 {
		t.Fatal("queue should drain")
	}
}

func TestResponseAndWaitTimes(t *testing.T) {
	s, q := newRig(t)
	r1 := &blockdev.Request{Op: disk.OpRead, LBA: 0, Sectors: 4096, Origin: blockdev.Foreground}
	r2 := &blockdev.Request{Op: disk.OpRead, LBA: 1 << 22, Sectors: 64, Origin: blockdev.Foreground}
	q.Submit(r1)
	q.Submit(r2)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if r1.WaitTime() != 0 {
		t.Fatalf("first request waited %v", r1.WaitTime())
	}
	if r2.WaitTime() <= 0 {
		t.Fatal("queued request should have waited")
	}
	if r2.ResponseTime() <= r2.WaitTime() {
		t.Fatal("response time must exceed wait time")
	}
}

func TestMergedRequestsComplete(t *testing.T) {
	// Merged requests must complete together with their carrier, with
	// identical dispatch/done stamps and both completion paths invoked.
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	sched := &fifoSched{}
	q := blockdev.NewQueue(s, d, sched)

	var completions []string
	q.SubscribeComplete(func(r *blockdev.Request) {
		completions = append(completions, r.Origin.String())
	})
	a := &blockdev.Request{Op: disk.OpRead, LBA: 0, Sectors: 64, Origin: blockdev.Foreground}
	b := &blockdev.Request{Op: disk.OpRead, LBA: 64, Sectors: 64, Origin: blockdev.Foreground}
	bDone := false
	b.OnComplete = func(*blockdev.Request) { bDone = true }
	// Simulate what an elevator does: absorb b into a, then submit a.
	// (fifoSched doesn't merge, so call AbsorbMerge directly; the queue
	// must still fan out completion.)
	q.Submit(a)
	a2 := &blockdev.Request{Op: disk.OpRead, LBA: 1 << 20, Sectors: 64, Origin: blockdev.Foreground}
	a2.AbsorbMerge(b)
	if a2.MergedCount() != 1 || a2.Sectors != 128 {
		t.Fatalf("AbsorbMerge bookkeeping wrong: %d sectors, %d merged", a2.Sectors, a2.MergedCount())
	}
	q.Submit(a2)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bDone {
		t.Fatal("merged request's completion not fired")
	}
	if b.Done != a2.Done || b.Dispatch != a2.Dispatch {
		t.Fatal("merged request stamps differ from carrier")
	}
	if len(completions) != 3 { // a, a2, b
		t.Fatalf("completion hook fired %d times, want 3", len(completions))
	}
}

func TestDiskAccessor(t *testing.T) {
	_, q := newRig(t)
	if q.Disk() == nil || q.Disk().Sectors() == 0 {
		t.Fatal("Disk() accessor broken")
	}
}

func TestOriginAndClassStrings(t *testing.T) {
	if blockdev.Foreground.String() != "foreground" || blockdev.Scrub.String() != "scrub" {
		t.Fatal("origin strings wrong")
	}
	if blockdev.Origin(9).String() == "" {
		t.Fatal("unknown origin should still print")
	}
	if blockdev.ClassRT.String() != "rt" || blockdev.ClassBE.String() != "be" ||
		blockdev.ClassIdle.String() != "idle" || blockdev.Class(9).String() == "" {
		t.Fatal("class strings wrong")
	}
}

func TestPendingCountsBarrierAndStaged(t *testing.T) {
	s, q := newRig(t)
	// Occupy the device, then queue a barrier and a staged request.
	q.Submit(&blockdev.Request{Op: disk.OpRead, LBA: 0, Sectors: 4096, Origin: blockdev.Foreground})
	q.Submit(&blockdev.Request{Op: disk.OpVerify, LBA: 0, Sectors: 64, Origin: blockdev.Scrub, Barrier: true})
	q.Submit(&blockdev.Request{Op: disk.OpRead, LBA: 9000, Sectors: 8, Origin: blockdev.Foreground})
	if got := q.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 (barrier + staged)", got)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if q.Pending() != 0 {
		t.Fatal("queue did not drain")
	}
}

func TestMergedRequestsCounted(t *testing.T) {
	// Completion accounting must include elevator-merged requests (their
	// bytes ride in the carrier).
	s := sim.New()
	d := disk.MustNew(disk.HitachiUltrastar15K450())
	q := blockdev.NewQueue(s, d, &fifoSched{})
	a := &blockdev.Request{Op: disk.OpRead, LBA: 0, Sectors: 64, Origin: blockdev.Foreground}
	b := &blockdev.Request{Op: disk.OpRead, LBA: 64, Sectors: 64, Origin: blockdev.Foreground}
	a.AbsorbMerge(b)
	q.Submit(a)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	st := q.Stats()
	if st.Completed[blockdev.Foreground-1] != 2 {
		t.Fatalf("Completed = %d, want 2 (carrier + merged)", st.Completed[blockdev.Foreground-1])
	}
	if st.Bytes[blockdev.Foreground-1] != 128*512 {
		t.Fatalf("Bytes = %d, want 128 sectors once", st.Bytes[blockdev.Foreground-1])
	}
}

// TestPropertyBarrierOrdering submits random mixes of barrier and normal
// requests and asserts the soft-barrier contract: everything submitted
// before a barrier completes before it, everything after completes after.
func TestPropertyBarrierOrdering(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.New()
		d := disk.MustNew(disk.HitachiUltrastar15K450())
		q := blockdev.NewQueue(s, d, &fifoSched{})
		type entry struct {
			req     *blockdev.Request
			barrier bool
			doneIdx int
		}
		var entries []*entry
		order := 0
		n := 5 + rng.Intn(15)
		for i := 0; i < n; i++ {
			e := &entry{barrier: rng.Intn(4) == 0, doneIdx: -1}
			e.req = &blockdev.Request{
				Op:      disk.OpRead,
				LBA:     rng.Int63n(d.Sectors() - 64),
				Sectors: 8 + rng.Int63n(56),
				Origin:  blockdev.Foreground,
				Barrier: e.barrier,
			}
			e.req.OnComplete = func(*blockdev.Request) {
				e.doneIdx = order
				order++
			}
			entries = append(entries, e)
			q.Submit(e.req)
		}
		if err := s.Run(); err != nil {
			return false
		}
		for i, e := range entries {
			if e.doneIdx < 0 {
				return false // lost request
			}
			if !e.barrier {
				continue
			}
			for j, other := range entries {
				if j < i && other.doneIdx > e.doneIdx {
					return false // pre-barrier completed after the barrier
				}
				if j > i && other.doneIdx < e.doneIdx {
					return false // post-barrier completed before the barrier
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
