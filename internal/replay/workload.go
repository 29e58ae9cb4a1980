// Package replay drives foreground workloads against a simulated device:
// the synthetic sequential/random workloads of the paper's Section IV-B
// (closed loop) and the replay of real-world trace records (open loop,
// Section IV-C), which streams any trace.Source, in-memory or on disk,
// through one bounded look-ahead window. It collects the response-time,
// slowdown and collision metrics the paper's Figures 3, 6, 7 and
// Table III report.
package replay

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/sim"
)

// ForegroundTag is the scheduler tag of the foreground workload.
const ForegroundTag = 0

// Synthetic is the closed-loop workload of Section IV-B: it reads a chunk
// of data in fixed-size requests issued synchronously, thinks for an
// exponentially distributed time, and repeats. With Random=false chunks
// are contiguous 8 MB reads from a random start ("a workload with a high
// degree of sequentiality"); with Random=true every request targets a
// random position.
//
// The paper words the think time as "between requests"; placing the
// exponential think between *chunks* (with requests inside a chunk issued
// back to back) is the only reading consistent with the ~12 MB/s
// foreground throughput its Fig. 6 reports, so that is what this
// implementation does. See EXPERIMENTS.md.
type Synthetic struct {
	// ChunkBytes per chunk (default 8 MB).
	ChunkBytes int64
	// ReqBytes per request (default 64 KB).
	ReqBytes int64
	// Random picks a random position per request instead of sequential
	// chunks.
	Random bool
	// ThinkMean is the mean exponential think time between chunks
	// (default 100 ms).
	ThinkMean time.Duration
	// BypassCache issues direct (FUA-like) reads, as the paper does
	// ("we send requests directly to the disk, bypassing the OS cache").
	BypassCache bool
	// Class is the I/O priority class (default BE).
	Class blockdev.Class
	// Seed for the think/position RNG.
	Seed int64

	sim *sim.Simulator
	q   *blockdev.Queue
	rng *rand.Rand

	cursor    int64
	remaining int64

	// doneFn/thinkFn are built once in Start so the per-request and
	// per-chunk hot path allocates no closures; requests come from the
	// queue's pool.
	doneFn  func(*blockdev.Request)
	thinkFn sim.EventFunc

	stats WorkloadStats
}

// WorkloadStats aggregates the foreground side of an experiment.
type WorkloadStats struct {
	Requests   int64
	Bytes      int64
	Collisions int64
	// RespTotal accumulates response times; RespMax tracks the worst.
	RespTotal time.Duration
	RespMax   time.Duration
	Started   time.Duration
	LastDone  time.Duration
}

// ThroughputMBps returns foreground MB/s over the workload's active span.
func (w WorkloadStats) ThroughputMBps(now time.Duration) float64 {
	span := now - w.Started
	if w.Requests == 0 || span <= 0 {
		return 0
	}
	return float64(w.Bytes) / 1e6 / span.Seconds()
}

// Start begins the closed loop on the given simulator and queue.
func (w *Synthetic) Start(s *sim.Simulator, q *blockdev.Queue) error {
	if w.ChunkBytes <= 0 {
		w.ChunkBytes = 8 << 20
	}
	if w.ReqBytes <= 0 {
		w.ReqBytes = 64 << 10
	}
	if w.ChunkBytes < w.ReqBytes {
		return fmt.Errorf("replay: chunk %d smaller than request %d", w.ChunkBytes, w.ReqBytes)
	}
	if w.ThinkMean <= 0 {
		w.ThinkMean = 100 * time.Millisecond
	}
	if w.Class == 0 {
		w.Class = blockdev.ClassBE
	}
	w.sim, w.q = s, q
	w.rng = rand.New(rand.NewSource(w.Seed))
	w.doneFn = func(r *blockdev.Request) { w.completed(r) }
	w.thinkFn = func(any, time.Duration) { w.beginChunk() }
	w.stats.Started = s.Now()
	w.beginChunk()
	return nil
}

// Stats returns a copy of the accumulated statistics.
func (w *Synthetic) Stats() WorkloadStats { return w.stats }

func (w *Synthetic) beginChunk() {
	sectors := w.q.Disk().Sectors()
	span := w.ChunkBytes / disk.SectorSize
	if span > sectors {
		span = sectors
	}
	w.cursor = w.rng.Int63n(sectors - span + 1)
	w.remaining = w.ChunkBytes
	w.issue()
}

func (w *Synthetic) issue() {
	reqSectors := w.ReqBytes / disk.SectorSize
	sectors := w.q.Disk().Sectors()
	lba := w.cursor
	if w.Random {
		lba = w.rng.Int63n(sectors - reqSectors + 1)
	}
	req := w.q.GetRequest()
	req.Op = disk.OpRead
	req.LBA = lba
	req.Sectors = reqSectors
	req.Class = w.Class
	req.Origin = blockdev.Foreground
	req.Tag = ForegroundTag
	req.BypassCache = w.BypassCache
	req.OnComplete = w.doneFn
	w.q.Submit(req)
}

func (w *Synthetic) completed(r *blockdev.Request) {
	w.stats.Requests++
	w.stats.Bytes += r.Bytes()
	w.stats.LastDone = r.Done
	resp := r.ResponseTime()
	w.stats.RespTotal += resp
	if resp > w.stats.RespMax {
		w.stats.RespMax = resp
	}
	if r.Collision {
		w.stats.Collisions++
	}
	w.cursor += r.Sectors
	w.remaining -= r.Bytes()
	if w.remaining > 0 {
		w.issue()
		return
	}
	think := time.Duration(w.rng.ExpFloat64() * float64(w.ThinkMean))
	w.sim.ScheduleAfter(think, w.thinkFn, nil)
}
