package sim

// Differential tests against the handle kernel. refSim below is the
// kernel as it was before timers: every event sits in one container/heap
// binary heap, At returns a cancelable handle, and a restore re-enqueues
// a handle event at its recorded (at, seq) slot. A component then kept
// one pending handle per role, cancelling it and scheduling afresh to
// re-arm. The Simulator keeps in-order pooled events in a FIFO lane
// beside its 4-ary heap, and a component holds a Timer instead. Both
// kernels run the same random programs — in-order and out-of-order
// Schedule with equal-time ties, fire-and-forget At, timers armed,
// re-armed and disarmed from outside and inside callbacks, restores of
// some timers with arbitrary sequence numbers, Step, RunUntil, Stop and
// context cancellation mid-run — and must fire the same events at the
// same (at, seq), with the same next pending (at, seq), Len, Clock and
// timer records after every operation.

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

// refSim is the heap-only handle kernel with the Simulator's semantics:
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

// cancel removes a pending handle; cancelling a fired, cancelled or
// discarded one is a no-op.
func (r *refSim) cancel(ev *refEvent) {
	if ev == nil || ev.fired || ev.dead {
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

// restoreClock discards every pending event: a discarded handle can no
// longer fire, and cancelling it is a no-op.
func (r *refSim) restoreClock(now time.Duration, seq, fired uint64) {
	for _, ev := range r.h {
		ev.index, ev.dead = -1, true
	}
	r.h = r.h[:0]
	r.now, r.seq, r.fired = now, seq, fired
}

// rearm re-enqueues a handle event at its recorded (at, seq) slot.
func (r *refSim) rearm(at time.Duration, seq uint64, fn func()) (*refEvent, error) {
	if seq == 0 || seq > r.seq {
		return nil, fmt.Errorf("seq %d out of range", seq)
	}
	ev := &refEvent{at: at, seq: seq, fn: fn}
	r.push(ev)
	return ev, nil
}

// numTimers is how many timer roles a program's components hold.
const numTimers = 6

// kernel is the surface the differential test exercises, implemented by
// the Simulator with Timers (simKernel) and by the handle kernel with
// one handle per timer role (refKernel). Timers are named by index.
type kernel interface {
	now() time.Duration
	schedule(t time.Duration, fn EventFunc, arg any)
	at(t time.Duration, fn func())
	initTimer(i int, fn func())
	arm(i int, t time.Duration)
	disarm(i int)
	record(i int) (armed bool, at time.Duration, seq uint64)
	restoreTimer(i int, armed bool, at time.Duration, seq uint64) error
	stop()
	step() bool
	runUntil(ctx context.Context, t time.Duration) error
	restoreClock(now time.Duration, seq, fired uint64)
	clock() (time.Duration, uint64, uint64)
	nextAt() (time.Duration, uint64, bool)
	len() int
}

type simKernel struct {
	s      *Simulator
	timers *[numTimers]Timer
}

func newSimKernel() simKernel { return simKernel{New(), new([numTimers]Timer)} }

func (k simKernel) now() time.Duration                            { return k.s.Now() }
func (k simKernel) schedule(t time.Duration, fn EventFunc, a any) { k.s.Schedule(t, fn, a) }
func (k simKernel) at(t time.Duration, fn func())                 { k.s.At(t, fn) }
func (k simKernel) initTimer(i int, fn func())                    { k.timers[i].Init(k.s, fn) }
func (k simKernel) arm(i int, t time.Duration)                    { k.timers[i].Arm(t) }
func (k simKernel) disarm(i int)                                  { k.timers[i].Disarm() }
func (k simKernel) record(i int) (bool, time.Duration, uint64) {
	armed, at, seq := k.timers[i].Record()
	if armed != k.timers[i].Armed() {
		panic("Record and Armed disagree")
	}
	return armed, at, seq
}
func (k simKernel) restoreTimer(i int, armed bool, at time.Duration, seq uint64) error {
	return k.timers[i].Restore(armed, at, seq)
}
func (k simKernel) stop()      { k.s.Stop() }
func (k simKernel) step() bool { return k.s.Step() }
func (k simKernel) runUntil(ctx context.Context, t time.Duration) error {
	return k.s.RunUntilContext(ctx, t)
}
func (k simKernel) restoreClock(now time.Duration, seq, fired uint64) {
	k.s.RestoreClock(now, seq, fired)
}
func (k simKernel) clock() (time.Duration, uint64, uint64) { return k.s.Clock() }
func (k simKernel) nextAt() (time.Duration, uint64, bool)  { return peekAt(k.s) }
func (k simKernel) len() int                               { return k.s.Len() }

// refKernel drives each timer role the way components drove handles:
// cancel and schedule afresh to arm, cancel and forget to disarm, forget
// inside the callback, and re-enqueue by record on restore.
type refKernel struct {
	r       *refSim
	handles *[numTimers]*refEvent
	fns     *[numTimers]func()
}

func newRefKernel() refKernel {
	return refKernel{&refSim{}, new([numTimers]*refEvent), new([numTimers]func())}
}

func (k refKernel) now() time.Duration                            { return k.r.now }
func (k refKernel) schedule(t time.Duration, fn EventFunc, a any) { k.r.schedule(t, fn, a) }
func (k refKernel) at(t time.Duration, fn func())                 { k.r.at(t, fn) }
func (k refKernel) initTimer(i int, fn func()) {
	k.fns[i] = func() {
		k.handles[i] = nil
		fn()
	}
}
func (k refKernel) arm(i int, t time.Duration) {
	k.r.cancel(k.handles[i])
	k.handles[i] = k.r.at(t, k.fns[i])
}
func (k refKernel) disarm(i int) {
	k.r.cancel(k.handles[i])
	k.handles[i] = nil
}
func (k refKernel) record(i int) (bool, time.Duration, uint64) {
	if h := k.handles[i]; h != nil && h.index >= 0 {
		return true, h.at, h.seq
	}
	return false, 0, 0
}
func (k refKernel) restoreTimer(i int, armed bool, at time.Duration, seq uint64) error {
	k.disarm(i)
	if !armed {
		return nil
	}
	h, err := k.r.rearm(at, seq, k.fns[i])
	k.handles[i] = h
	return err
}
func (k refKernel) stop()      { k.r.stopped = true }
func (k refKernel) step() bool { return k.r.step() }
func (k refKernel) runUntil(ctx context.Context, t time.Duration) error {
	return k.r.runUntil(ctx, t)
}
func (k refKernel) restoreClock(now time.Duration, seq, fired uint64) {
	k.r.restoreClock(now, seq, fired)
}
func (k refKernel) clock() (time.Duration, uint64, uint64) { return k.r.now, k.r.seq, k.r.fired }
func (k refKernel) nextAt() (time.Duration, uint64, bool) {
	if len(k.r.h) == 0 {
		return 0, 0, false
	}
	return k.r.h[0].at, k.r.h[0].seq, true
}
func (k refKernel) len() int { return len(k.r.h) }

// kernelProgram runs one random program against one kernel. Its RNG is
// consumed by the program and by firing callbacks alike, so two programs
// with the same seed stay in lock step exactly as long as their kernels
// fire the same events in the same order. Every firing is logged as
// kind, id, the seq the event was given and the firing time.
type kernelProgram struct {
	k        kernel
	rng      *rand.Rand
	log      []string
	ids      int
	horizon  time.Duration // latest in-order arrival scheduled so far
	timerSeq [numTimers]uint64
	budget   int // events callbacks may still spawn
	stopAt   int // stop the run when the log reaches this length (0: never)
	cancelAt int // cancel the run's context when the log reaches this length
	cancel   context.CancelFunc
	fireFn   EventFunc
}

type progTag struct {
	id  int
	seq uint64
}

func newKernelProgram(k kernel, seed int64) *kernelProgram {
	d := &kernelProgram{k: k, rng: rand.New(rand.NewSource(seed)), budget: 6000}
	d.fireFn = d.fire
	for i := 0; i < numTimers; i++ {
		k.initTimer(i, func() { d.fireTimer(i) })
	}
	return d
}

// lastSeq is the sequence number the kernel assigned most recently.
func (d *kernelProgram) lastSeq() uint64 {
	_, seq, _ := d.k.clock()
	return seq
}

// schedule adds a pooled event tagged with its id and seq.
func (d *kernelProgram) schedule(t time.Duration) {
	d.ids++
	tag := &progTag{id: d.ids}
	d.k.schedule(t, d.fireFn, tag)
	tag.seq = d.lastSeq()
}

// at adds a fire-and-forget event.
func (d *kernelProgram) at(t time.Duration) {
	d.ids++
	id := d.ids
	var seq uint64
	d.k.at(t, func() { d.record("a", id, seq, d.k.now()) })
	seq = d.lastSeq()
}

// arm arms timer i and notes the seq it was given.
func (d *kernelProgram) arm(i int, t time.Duration) {
	d.k.arm(i, t)
	_, _, d.timerSeq[i] = d.k.record(i)
}

// record logs a firing and runs the mid-run triggers.
func (d *kernelProgram) record(kind string, id int, seq uint64, now time.Duration) {
	d.log = append(d.log, fmt.Sprintf("%s%d#%d@%d", kind, id, seq, now))
	if d.stopAt > 0 && len(d.log) == d.stopAt {
		d.k.stop()
	}
	if d.cancel != nil && len(d.log) == d.cancelAt {
		d.cancel()
	}
}

// fire is the pooled callback: it logs, then may spawn replay-like
// children — a completion out of order, the next in-order arrival, a tie
// at the current instant, an At event, or a timer armed or disarmed.
func (d *kernelProgram) fire(arg any, now time.Duration) {
	tag := arg.(*progTag)
	d.record("p", tag.id, tag.seq, now)
	if d.budget <= 0 {
		return
	}
	d.budget--
	switch d.rng.Intn(9) {
	case 0, 1:
		d.schedule(now + time.Duration(d.rng.Intn(2000)))
	case 2, 3:
		d.horizon += time.Duration(d.rng.Intn(300))
		d.schedule(max(d.horizon, now))
	case 4:
		d.schedule(now)
	case 5:
		d.at(now + time.Duration(d.rng.Intn(3000)))
	case 6:
		d.arm(d.rng.Intn(numTimers), now+time.Duration(d.rng.Intn(3000)))
	case 7:
		d.k.disarm(d.rng.Intn(numTimers))
	}
}

// fireTimer is timer i's callback: it logs, then, as a policy does, may
// re-arm itself, arm or disarm another timer, or schedule work.
func (d *kernelProgram) fireTimer(i int) {
	now := d.k.now()
	d.record("t", i, d.timerSeq[i], now)
	if d.budget <= 0 {
		return
	}
	d.budget--
	switch d.rng.Intn(5) {
	case 0:
		d.arm(i, now+time.Duration(d.rng.Intn(2000)))
	case 1:
		d.arm(d.rng.Intn(numTimers), now+time.Duration(d.rng.Intn(2000)))
	case 2:
		d.k.disarm(d.rng.Intn(numTimers))
	case 3:
		d.schedule(now + time.Duration(d.rng.Intn(500)))
	}
}

// op runs one random top-level operation and describes its outcome.
func (d *kernelProgram) op() string {
	now := d.k.now()
	switch d.rng.Intn(10) {
	case 0: // an in-order burst with ties, as a replay window refill
		n := 1 + d.rng.Intn(64)
		for i := 0; i < n; i++ {
			if d.rng.Intn(3) > 0 {
				d.horizon += time.Duration(d.rng.Intn(500))
			}
			d.schedule(max(d.horizon, now))
		}
		return "burst"
	case 1: // out-of-order schedules and At events, some in the past
		for i := 0; i < 1+d.rng.Intn(16); i++ {
			t := now + time.Duration(d.rng.Intn(4000)-500)
			if d.rng.Intn(3) == 0 {
				d.at(t)
			} else {
				d.schedule(t)
			}
		}
		return "scatter"
	case 2: // timers armed, re-armed (some into the past) and disarmed
		for i := 0; i < 1+d.rng.Intn(8); i++ {
			d.arm(d.rng.Intn(numTimers), now+time.Duration(d.rng.Intn(4000)-200))
		}
		for i := 0; i < d.rng.Intn(4); i++ {
			d.k.disarm(d.rng.Intn(numTimers))
		}
		return "arm+disarm"
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
			d.schedule(max(d.horizon, now))
		}
		err := d.k.runUntil(ctx, d.horizon)
		cancel()
		d.cancel = nil
		if errors.Is(err, context.Canceled) {
			err = context.Canceled
		}
		return fmt.Sprintf("ctx %v", err)
	case 7: // park and restore: records, a new clock, then some timers back
		var recs [numTimers]struct {
			armed bool
			at    time.Duration
			seq   uint64
		}
		for i := range recs {
			recs[i].armed, recs[i].at, recs[i].seq = d.k.record(i)
		}
		_, seq, fired := d.k.clock()
		seq += uint64(d.rng.Intn(50))
		d.k.restoreClock(now+time.Duration(d.rng.Intn(100)), seq, fired)
		now = d.k.now()
		d.horizon = now
		// Timers left out stay discarded: disarmed, and disarming them is
		// a no-op. Restored ones take their own record back or, to cover
		// the range check, an arbitrary seq that no other timer holds.
		used := map[uint64]bool{}
		for _, rec := range recs {
			used[rec.seq] = true
		}
		seqs := d.rng.Perm(int(seq) + 2)
		errs := 0
		for i := range recs {
			switch d.rng.Intn(3) {
			case 0:
				continue
			case 1:
				if err := d.k.restoreTimer(i, recs[i].armed, recs[i].at, recs[i].seq); err != nil {
					errs++
				}
			default:
				for len(seqs) > 0 && used[uint64(seqs[0])] {
					seqs = seqs[1:]
				}
				if len(seqs) == 0 {
					continue
				}
				at := now + time.Duration(d.rng.Intn(3000))
				if err := d.k.restoreTimer(i, true, at, uint64(seqs[0])); err != nil {
					errs++
				}
				used[uint64(seqs[0])] = true
			}
			_, _, d.timerSeq[i] = d.k.record(i)
		}
		return fmt.Sprintf("restore %d errs", errs)
	default: // a quiet schedule, to keep both paths warm
		d.schedule(now + time.Duration(d.rng.Intn(1000)))
		return "one"
	}
}

// state renders everything the kernels must agree on after an operation.
func (d *kernelProgram) state(outcome string) string {
	now, seq, fired := d.k.clock()
	at, nseq, ok := d.k.nextAt()
	s := fmt.Sprintf("%s | log %d | clock %d/%d/%d | next %d/%d/%v | len %d | timers",
		outcome, len(d.log), now, seq, fired, at, nseq, ok, d.k.len())
	for i := 0; i < numTimers; i++ {
		armed, at, seq := d.k.record(i)
		s += fmt.Sprintf(" %v/%d/%d", armed, at, seq)
	}
	return s
}

// runDifferential runs ops random operations from seed on both kernels,
// then drains them, failing at the first divergence.
func runDifferential(t *testing.T, seed int64, ops int) {
	t.Helper()
	got := newKernelProgram(newSimKernel(), seed)
	ref := newKernelProgram(newRefKernel(), seed)
	checked := 0
	for i := 0; i < ops; i++ {
		gs, rs := got.state(got.op()), ref.state(ref.op())
		if err := sameLog(got.log, ref.log, checked); err != nil {
			t.Fatalf("seed %d op %d: %v", seed, i, err)
		}
		if gs != rs {
			t.Fatalf("seed %d op %d:\nsim %s\nref %s", seed, i, gs, rs)
		}
		checked = len(ref.log)
	}
	got.budget, ref.budget = 0, 0
	for got.k.step() {
	}
	for ref.k.step() {
	}
	if err := sameLog(got.log, ref.log, checked); err != nil {
		t.Fatalf("seed %d drain: %v", seed, err)
	}
	if gs, rs := got.state("drained"), ref.state("drained"); gs != rs {
		t.Fatalf("seed %d drain:\nsim %s\nref %s", seed, gs, rs)
	}
}

func TestLaneMatchesHeapReference(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		runDifferential(t, int64(9100+trial), 120)
	}
}

// FuzzKernelMatchesReference runs one differential program per input:
// its seed and length come from the fuzzer.
func FuzzKernelMatchesReference(f *testing.F) {
	f.Add(int64(9100), uint8(120))
	f.Add(int64(1), uint8(8))
	f.Add(int64(-7), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, ops uint8) {
		runDifferential(t, seed, int(ops%64))
	})
}

// sameLog compares two firing logs from position from on.
func sameLog(got, want []string, from int) error {
	for i := from; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return fmt.Errorf("firing %d: sim %s, reference %s", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("sim fired %d events, reference %d", len(got), len(want))
	}
	return nil
}

// peekAt returns the timestamp and sequence number of s's earliest
// pending event. ok=false means the queue is empty.
func peekAt(s *Simulator) (at time.Duration, seq uint64, ok bool) {
	ev := s.q.peek()
	if ev == nil {
		return 0, 0, false
	}
	return ev.at, ev.seq, true
}
