package main

import (
	"container/heap"
	"time"
)

// Host speed. On a shared 2-vCPU host the same job's wall time drifts by
// 20% and more over minutes as neighbours come and go, and CPU time
// drifts with it, so neither raw wall nor CPU time tells two runs of one
// commit apart from a regression. Every run therefore also times a fixed
// calibration kernel, interleaved with its measured work, and reports its
// end-to-end timings rescaled to the reference speed: the kernel taking
// calNominal. The kernel uses only the standard library, so no change to
// the repository's code moves it, and it does what the simulator does
// (heap-ordered events, small allocations, map updates, scattered reads
// over a few MB), so it slows down with the host the way the workloads
// do.

// calNominal is the kernel's median time on the reference host: a 2-vCPU
// Intel Xeon KVM guest running go1.24.
const calNominal = 21 * time.Millisecond

// calEvery is how much measured work runs between two kernel samples.
const calEvery = 500 * time.Millisecond

type calEvent struct {
	at float64
	v  int64
}

type calHeap []*calEvent

func (h calHeap) Len() int           { return len(h) }
func (h calHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h calHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *calHeap) Push(x any)        { *h = append(*h, x.(*calEvent)) }
func (h *calHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// calTable is the kernel's 4 MB scattered-read working set.
var calTable = make([]int64, 1<<19)

var calSink int64

// calKernel runs the fixed calibration work once and returns its time.
func calKernel() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := &calHeap{}
	seen := map[int64]*calEvent{}
	for i := 0; i < 4096; i++ {
		heap.Push(h, &calEvent{at: float64(rnd()%100000) / 1000})
	}
	for i := 0; i < 60000; i++ {
		ev := heap.Pop(h).(*calEvent)
		r := rnd()
		k := int64(r % 16384)
		if old, ok := seen[k]; ok {
			calSink += old.v
		}
		seen[k] = ev
		calSink += calTable[r&(1<<19-1)]
		heap.Push(h, &calEvent{at: ev.at + float64(r%1000)/1000 + 0.001, v: int64(r)})
	}
	return time.Since(t0)
}

// hostSpeed holds a run's kernel samples in the order they were taken.
// Work done between two samples is rescaled by the slowdown those two
// show: the host's speed drifts within a run as well as between runs, and
// the run's mean speed fits a single operation poorly.
type hostSpeed struct {
	samples []time.Duration
	last    time.Time // when the last sample was taken
}

// sample times the kernel once.
func (hs *hostSpeed) sample() {
	hs.samples = append(hs.samples, calKernel())
	hs.last = time.Now()
}

// tick samples the kernel if calEvery has passed since the last sample.
func (hs *hostSpeed) tick() {
	if time.Since(hs.last) >= calEvery {
		hs.sample()
	}
}

// next is the index the next sample will get.
func (hs *hostSpeed) next() int { return len(hs.samples) }

// slowdownBefore is how much slower than the reference the host ran
// between samples i-1 and i: their mean time over calNominal.
func (hs *hostSpeed) slowdownBefore(i int) float64 {
	return float64(hs.samples[i-1]+hs.samples[i]) / float64(2*calNominal)
}

// slowdown is the run's mean kernel time over calNominal, for the log.
func (hs *hostSpeed) slowdown() float64 {
	var total time.Duration
	for _, d := range hs.samples {
		total += d
	}
	return float64(total) / float64(len(hs.samples)) / float64(calNominal)
}
