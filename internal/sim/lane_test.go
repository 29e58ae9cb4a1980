package sim

// Differential tests for the in-order lane. A Simulator keeps pooled
// events that arrive in (at, seq) order in a FIFO lane beside its 4-ary
// heap; refSim below keeps every event in one container/heap binary heap,
// the structure the kernel started from. Both run the same random
// programs — in-order and out-of-order Schedule with equal-time ties, At
// and Cancel, restores with arbitrary sequence numbers, Step, RunUntil,
// Stop and context cancellation mid-run — and must fire the same events
// at the same instants, with the same NextAt, Len and Clock after every
// operation.

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refEvent is one pending event of the reference kernel.
type refEvent struct {
	at          time.Duration
	seq         uint64
	fn          func()
	afn         EventFunc
	arg         any
	index       int
	fired, dead bool
}

// refHeap is a container/heap binary min-heap ordered by (at, seq).
type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	ev.index = -1
	return ev
}

// refSim is a heap-only reference kernel with the Simulator's semantics:
// clamping, sequence numbering, RunUntil's clock advance, Stop, and the
// context poll every ctxCheckInterval events.
type refSim struct {
	now        time.Duration
	seq, fired uint64
	stopped    bool
	h          refHeap
}

func (r *refSim) push(ev *refEvent) { heap.Push(&r.h, ev) }

func (r *refSim) at(t time.Duration, fn func()) *refEvent {
	if t < r.now {
		t = r.now
	}
	r.seq++
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	r.push(ev)
	return ev
}

func (r *refSim) schedule(t time.Duration, fn EventFunc, arg any) {
	if t < r.now {
		t = r.now
	}
	r.seq++
	r.push(&refEvent{at: t, seq: r.seq, afn: fn, arg: arg})
}

func (r *refSim) cancel(ev *refEvent) {
	if ev.fired || ev.dead {
		return
	}
	ev.dead = true
	if ev.index >= 0 {
		heap.Remove(&r.h, ev.index)
	}
}

func (r *refSim) step() bool {
	if len(r.h) == 0 {
		return false
	}
	ev := heap.Pop(&r.h).(*refEvent)
	r.now = ev.at
	r.fired++
	ev.fired = true
	if ev.afn != nil {
		ev.afn(ev.arg, ev.at)
	} else {
		ev.fn()
	}
	return true
}

func (r *refSim) runUntil(ctx context.Context, t time.Duration) error {
	r.stopped = false
	fired := 0
	for !r.stopped {
		if len(r.h) == 0 || r.h[0].at > t {
			if t > r.now {
				r.now = t
			}
			return nil
		}
		if fired%ctxCheckInterval == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		r.step()
		fired++
	}
	return ErrStopped
}

func (r *refSim) restoreClock(now time.Duration, seq, fired uint64) {
	for _, ev := range r.h {
		ev.index, ev.dead = -1, true
	}
	r.h = r.h[:0]
	r.now, r.seq, r.fired = now, seq, fired
}

func (r *refSim) restore(at time.Duration, seq uint64, ev *refEvent) error {
	if seq == 0 || seq > r.seq {
		return fmt.Errorf("seq %d out of range", seq)
	}
	ev.at, ev.seq = at, seq
	r.push(ev)
	return nil
}

// kernel is the surface the differential test exercises, implemented
// by the Simulator (laneKernel) and the reference (refKernel). Handles
// are opaque.
type kernel interface {
	now() time.Duration
	schedule(t time.Duration, fn EventFunc, arg any)
	at(t time.Duration, fn func()) any
	cancel(h any)
	stop()
	step() bool
	runUntil(ctx context.Context, t time.Duration) error
	restoreClock(now time.Duration, seq, fired uint64)
	restoreSchedule(at time.Duration, seq uint64, fn EventFunc, arg any) error
	restoreAt(at time.Duration, seq uint64, fn func()) (any, error)
	clock() (time.Duration, uint64, uint64)
	nextAt() (time.Duration, uint64, bool)
	len() int
}

type laneKernel struct{ s *Simulator }

func (k laneKernel) now() time.Duration                            { return k.s.Now() }
func (k laneKernel) schedule(t time.Duration, fn EventFunc, a any) { k.s.Schedule(t, fn, a) }
func (k laneKernel) at(t time.Duration, fn func()) any             { return k.s.At(t, fn) }
func (k laneKernel) cancel(h any)                                  { k.s.Cancel(h.(*Event)) }
func (k laneKernel) stop()                                         { k.s.Stop() }
func (k laneKernel) step() bool                                    { return k.s.Step() }
func (k laneKernel) runUntil(ctx context.Context, t time.Duration) error {
	return k.s.RunUntilContext(ctx, t)
}
func (k laneKernel) restoreClock(now time.Duration, seq, fired uint64) {
	k.s.RestoreClock(now, seq, fired)
}
func (k laneKernel) restoreSchedule(at time.Duration, seq uint64, fn EventFunc, a any) error {
	return k.s.RestoreSchedule(at, seq, fn, a)
}
func (k laneKernel) restoreAt(at time.Duration, seq uint64, fn func()) (any, error) {
	return k.s.Rearm(true, at, seq, fn)
}
func (k laneKernel) clock() (time.Duration, uint64, uint64) { return k.s.Clock() }
func (k laneKernel) nextAt() (time.Duration, uint64, bool)  { return k.s.NextAt() }
func (k laneKernel) len() int                               { return k.s.Len() }

type refKernel struct{ r *refSim }

func (k refKernel) now() time.Duration                            { return k.r.now }
func (k refKernel) schedule(t time.Duration, fn EventFunc, a any) { k.r.schedule(t, fn, a) }
func (k refKernel) at(t time.Duration, fn func()) any             { return k.r.at(t, fn) }
func (k refKernel) cancel(h any)                                  { k.r.cancel(h.(*refEvent)) }
func (k refKernel) stop()                                         { k.r.stopped = true }
func (k refKernel) step() bool                                    { return k.r.step() }
func (k refKernel) runUntil(ctx context.Context, t time.Duration) error {
	return k.r.runUntil(ctx, t)
}
func (k refKernel) restoreClock(now time.Duration, seq, fired uint64) {
	k.r.restoreClock(now, seq, fired)
}
func (k refKernel) restoreSchedule(at time.Duration, seq uint64, fn EventFunc, a any) error {
	return k.r.restore(at, seq, &refEvent{afn: fn, arg: a})
}
func (k refKernel) restoreAt(at time.Duration, seq uint64, fn func()) (any, error) {
	ev := &refEvent{fn: fn}
	if err := k.r.restore(at, seq, ev); err != nil {
		return nil, err
	}
	return ev, nil
}
func (k refKernel) clock() (time.Duration, uint64, uint64) { return k.r.now, k.r.seq, k.r.fired }
func (k refKernel) nextAt() (time.Duration, uint64, bool) {
	if len(k.r.h) == 0 {
		return 0, 0, false
	}
	return k.r.h[0].at, k.r.h[0].seq, true
}
func (k refKernel) len() int { return len(k.r.h) }

// laneProgram runs one random program against one kernel. Its RNG is
// consumed by the program and by firing callbacks alike, so two programs
// with the same seed stay in lock step exactly as long as their kernels
// fire the same events in the same order.
type laneProgram struct {
	k        kernel
	rng      *rand.Rand
	log      []string
	ids      int
	horizon  time.Duration // latest in-order arrival scheduled so far
	handles  []any
	budget   int // events callbacks may still spawn
	stopAt   int // stop the run when the log reaches this length (0: never)
	cancelAt int // cancel the run's context when the log reaches this length
	cancel   context.CancelFunc
	fireFn   EventFunc
}

type laneTag struct{ id int }

func newLaneProgram(k kernel, seed int64) *laneProgram {
	d := &laneProgram{k: k, rng: rand.New(rand.NewSource(seed)), budget: 6000}
	d.fireFn = d.fire
	return d
}

func (d *laneProgram) tag() *laneTag { d.ids++; return &laneTag{d.ids} }

// record logs a firing and runs the mid-run triggers.
func (d *laneProgram) record(kind string, id int, now time.Duration) {
	d.log = append(d.log, fmt.Sprintf("%s%d@%d", kind, id, now))
	if d.stopAt > 0 && len(d.log) == d.stopAt {
		d.k.stop()
	}
	if d.cancel != nil && len(d.log) == d.cancelAt {
		d.cancel()
	}
}

// fire is the pooled callback: it logs, then may spawn replay-like
// children — a completion out of order, the next in-order arrival, a tie
// at the current instant, a timer, or a cancellation.
func (d *laneProgram) fire(arg any, now time.Duration) {
	d.record("p", arg.(*laneTag).id, now)
	if d.budget <= 0 {
		return
	}
	d.budget--
	switch d.rng.Intn(8) {
	case 0, 1:
		d.k.schedule(now+time.Duration(d.rng.Intn(2000)), d.fireFn, d.tag())
	case 2, 3:
		d.horizon += time.Duration(d.rng.Intn(300))
		d.k.schedule(max(d.horizon, now), d.fireFn, d.tag())
	case 4:
		d.k.schedule(now, d.fireFn, d.tag())
	case 5:
		d.addAt(now + time.Duration(d.rng.Intn(3000)))
	case 6:
		d.cancelOne()
	}
}

func (d *laneProgram) addAt(t time.Duration) {
	id := d.tag().id
	d.handles = append(d.handles, d.k.at(t, func() { d.record("h", id, d.k.now()) }))
}

func (d *laneProgram) cancelOne() {
	if len(d.handles) > 0 {
		d.k.cancel(d.handles[d.rng.Intn(len(d.handles))])
	}
}

// op runs one random top-level operation and describes its outcome.
func (d *laneProgram) op() string {
	now := d.k.now()
	switch d.rng.Intn(10) {
	case 0: // an in-order burst with ties, as a replay window refill
		n := 1 + d.rng.Intn(64)
		for i := 0; i < n; i++ {
			if d.rng.Intn(3) > 0 {
				d.horizon += time.Duration(d.rng.Intn(500))
			}
			d.k.schedule(max(d.horizon, now), d.fireFn, d.tag())
		}
		return "burst"
	case 1: // out-of-order schedules, some in the past
		for i := 0; i < 1+d.rng.Intn(16); i++ {
			d.k.schedule(now+time.Duration(d.rng.Intn(4000)-500), d.fireFn, d.tag())
		}
		return "scatter"
	case 2: // handle events and cancellations
		for i := 0; i < 1+d.rng.Intn(8); i++ {
			d.addAt(now + time.Duration(d.rng.Intn(4000)))
		}
		for i := 0; i < d.rng.Intn(4); i++ {
			d.cancelOne()
		}
		return "at+cancel"
	case 3:
		n := 0
		for i := 0; i < 1+d.rng.Intn(40); i++ {
			if d.k.step() {
				n++
			}
		}
		return fmt.Sprintf("step %d", n)
	case 4:
		err := d.k.runUntil(context.Background(), now+time.Duration(d.rng.Intn(5000)))
		return fmt.Sprintf("runUntil %v", err)
	case 5: // Stop from inside a callback
		d.stopAt = len(d.log) + 1 + d.rng.Intn(50)
		err := d.k.runUntil(context.Background(), now+time.Duration(d.rng.Intn(20000)))
		d.stopAt = 0
		return fmt.Sprintf("stop %v", err)
	case 6: // context cancelled mid-run, seen at the next poll
		ctx, cancel := context.WithCancel(context.Background())
		d.cancel, d.cancelAt = cancel, len(d.log)+1+d.rng.Intn(2*ctxCheckInterval)
		for i := 0; i < ctxCheckInterval+d.rng.Intn(ctxCheckInterval); i++ {
			d.horizon += time.Duration(d.rng.Intn(40))
			d.k.schedule(max(d.horizon, now), d.fireFn, d.tag())
		}
		err := d.k.runUntil(ctx, d.horizon)
		cancel()
		d.cancel = nil
		if errors.Is(err, context.Canceled) {
			err = context.Canceled
		}
		return fmt.Sprintf("ctx %v", err)
	case 7: // restore: a new clock, then events with arbitrary seqs
		_, seq, fired := d.k.clock()
		seq += uint64(d.rng.Intn(50))
		// Handles from before the restore stay in d.handles: cancelling
		// a discarded event must be a no-op in both kernels.
		d.k.restoreClock(now+time.Duration(d.rng.Intn(100)), seq, fired)
		now = d.k.now()
		d.horizon = now
		var errs []error
		for _, i := range d.rng.Perm(int(seq) + 2)[:min(int(seq)+2, 1+d.rng.Intn(40))] {
			at := now + time.Duration(d.rng.Intn(3000))
			if d.rng.Intn(4) == 0 {
				id := d.tag().id
				h, err := d.k.restoreAt(at, uint64(i), func() { d.record("h", id, d.k.now()) })
				if err == nil {
					d.handles = append(d.handles, h)
				}
				errs = append(errs, err)
			} else {
				errs = append(errs, d.k.restoreSchedule(at, uint64(i), d.fireFn, d.tag()))
			}
		}
		return fmt.Sprintf("restore %d errs", countErrs(errs))
	default: // a quiet schedule, to keep both paths warm
		d.k.schedule(now+time.Duration(d.rng.Intn(1000)), d.fireFn, d.tag())
		return "one"
	}
}

func countErrs(errs []error) int {
	n := 0
	for _, err := range errs {
		if err != nil {
			n++
		}
	}
	return n
}

// state renders everything the kernels must agree on after an operation.
func (d *laneProgram) state(outcome string) string {
	now, seq, fired := d.k.clock()
	at, nseq, ok := d.k.nextAt()
	return fmt.Sprintf("%s | log %d | clock %d/%d/%d | next %d/%d/%v | len %d",
		outcome, len(d.log), now, seq, fired, at, nseq, ok, d.k.len())
}

func TestLaneMatchesHeapReference(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		seed := int64(9100 + trial)
		lane := newLaneProgram(laneKernel{New()}, seed)
		ref := newLaneProgram(refKernel{&refSim{}}, seed)
		checked := 0
		for i := 0; i < 120; i++ {
			got, want := lane.state(lane.op()), ref.state(ref.op())
			if err := sameLog(lane.log, ref.log, checked); err != nil {
				t.Fatalf("trial %d op %d: %v", trial, i, err)
			}
			if got != want {
				t.Fatalf("trial %d op %d:\nlane %s\nref  %s", trial, i, got, want)
			}
			checked = len(ref.log)
		}
		lane.budget, ref.budget = 0, 0
		for lane.k.step() {
		}
		for ref.k.step() {
		}
		if err := sameLog(lane.log, ref.log, checked); err != nil {
			t.Fatalf("trial %d drain: %v", trial, err)
		}
		if got, want := lane.state("drained"), ref.state("drained"); got != want {
			t.Fatalf("trial %d drain:\nlane %s\nref  %s", trial, got, want)
		}
	}
}

// sameLog compares two firing logs from position from on.
func sameLog(got, want []string, from int) error {
	for i := from; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("firing %d: lane %s, reference %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("lane fired %d events, reference %d", len(got), len(want))
	}
	return nil
}

// TestLaneCompactsUnderSustainedUse keeps the lane non-empty for many
// times its depth, as a streaming replay does, and checks that its
// backing array stays bounded by a small multiple of that depth.
func TestLaneCompactsUnderSustainedUse(t *testing.T) {
	s := New()
	const depth = 256
	var horizon time.Duration
	var arrive EventFunc
	arrive = func(_ any, _ time.Duration) {
		horizon += time.Microsecond
		s.Schedule(horizon, arrive, nil)
	}
	for i := 0; i < depth; i++ {
		horizon += time.Microsecond
		s.Schedule(horizon, arrive, nil)
	}
	for i := 0; i < 100*depth; i++ {
		s.Step()
	}
	if s.Len() != depth {
		t.Fatalf("Len = %d, want %d", s.Len(), depth)
	}
	if len(s.q.heap) != 0 {
		t.Fatalf("in-order events reached the heap: %d", len(s.q.heap))
	}
	if c := cap(s.q.lane); c > 4*depth {
		t.Fatalf("lane capacity %d grew past 4x its depth %d", c, depth)
	}
}
