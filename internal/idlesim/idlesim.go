// Package idlesim evaluates scrub scheduling policies analytically over a
// trace's idle-interval sequence, the methodology behind the paper's
// Figs. 14 and 15 and Table III: a policy picks when (and whether) to
// start firing within each idle interval; firing then continues
// back-to-back until the interval ends, where the in-flight scrub request
// delays the arriving foreground request (a collision). This evaluates
// thousands of policy configurations in milliseconds, which is what makes
// the paper's binary-search parameter optimization practical.
package idlesim

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/disk"
	"repro/internal/trace"
)

// ServiceFunc returns the back-to-back scrub service time for a request of
// the given sector count.
type ServiceFunc func(sectors int64) time.Duration

// ScrubService derives a ServiceFunc from a drive model: command and
// completion overheads, the full-rotation miss of back-to-back VERIFY
// (Section IV-A), and media transfer at the average zone rate.
func ScrubService(m disk.Model) ServiceFunc {
	rot := m.RotationTime()
	// Average media rate: mean sectors-per-track over the linear zone
	// profile is capacity / (cylinders*heads) sectors per track.
	avgSPT := float64(m.Sectors()) / float64(m.Cylinders*m.Heads)
	secPerSector := rot.Seconds() / avgSPT
	fixed := m.CommandOverhead + m.CompletionOverhead
	return func(sectors int64) time.Duration {
		rotMiss := rot - fixed
		if rotMiss < 0 {
			rotMiss = 0
		}
		transfer := time.Duration(float64(sectors) * secPerSector * float64(time.Second))
		return fixed + rotMiss + transfer
	}
}

// SizeFunc returns the sector count of the k-th request of a firing burst,
// issued sinceFire after the burst began. Adaptive strategies
// (Section V-C) plug in here.
type SizeFunc func(k int, sinceFire time.Duration) int64

// Input is the workload abstraction: its idle intervals, the request count
// (the collision-rate denominator) and total span (the throughput
// denominator).
type Input struct {
	Intervals []time.Duration
	Requests  int64
	Span      time.Duration
}

// TotalIdle sums the intervals.
func (in Input) TotalIdle() time.Duration {
	var t time.Duration
	for _, iv := range in.Intervals {
		t += iv
	}
	return t
}

// Policy plans scrubbing for each interval in sequence: it returns the
// offset after interval start at which firing begins, and whether to fire
// at all. Implementations may keep history state; Plan is called exactly
// once per interval, in order, and the true interval length is the
// feedback a live policy would observe (the next foreground arrival).
type Policy interface {
	Plan(interval time.Duration) (fire time.Duration, ok bool)
	Name() string
}

// Result aggregates a policy run.
type Result struct {
	// UtilizedIdle is the idle time spent scrubbing.
	UtilizedIdle time.Duration
	// TotalIdle is the trace's total idle time.
	TotalIdle time.Duration
	// Collisions counts intervals whose end caught a scrub request in
	// flight.
	Collisions int64
	// Requests is the foreground request count (denominator).
	Requests int64
	// ScrubbedBytes is the volume verified.
	ScrubbedBytes int64
	// Span is the trace duration.
	Span time.Duration
	// SlowdownTotal accumulates collision delays; SlowdownMax is the
	// worst single delay.
	SlowdownTotal time.Duration
	SlowdownMax   time.Duration
}

// UtilizedFrac returns the fraction of idle time used for scrubbing
// (Fig. 14's y axis).
func (r Result) UtilizedFrac() float64 {
	if r.TotalIdle <= 0 {
		return 0
	}
	return float64(r.UtilizedIdle) / float64(r.TotalIdle)
}

// CollisionRate returns the fraction of foreground requests delayed by a
// scrub request (Fig. 14's x axis).
func (r Result) CollisionRate() float64 {
	if r.Requests <= 0 {
		return 0
	}
	return float64(r.Collisions) / float64(r.Requests)
}

// MeanSlowdown returns the average slowdown per foreground request
// (Fig. 15's x axis; the optimizer's constraint).
func (r Result) MeanSlowdown() time.Duration {
	if r.Requests <= 0 {
		return 0
	}
	return r.SlowdownTotal / time.Duration(r.Requests)
}

// ThroughputMBps returns scrub throughput over the whole trace span
// (Fig. 15's y axis; Table III's metric).
func (r Result) ThroughputMBps() float64 {
	if r.Span <= 0 {
		return 0
	}
	return float64(r.ScrubbedBytes) / 1e6 / r.Span.Seconds()
}

// Run evaluates a policy over the input with a fixed request size. For
// fixed sizes the per-interval walk has a closed form — the number of
// requests is ceil(span / serviceTime) and only the last one collides —
// which makes the optimizer's threshold sweeps cheap on long traces.
// RunAdaptive with a constant SizeFunc gives identical results.
func Run(in Input, pol Policy, reqSectors int64, svc ServiceFunc) Result {
	res := Result{
		Requests:  in.Requests,
		Span:      in.Span,
		TotalIdle: in.TotalIdle(),
	}
	t := svc(reqSectors)
	if t <= 0 {
		t = time.Nanosecond
	}
	bytes := reqSectors * disk.SectorSize
	for _, interval := range in.Intervals {
		fire, ok := pol.Plan(interval)
		if !ok || fire >= interval {
			continue
		}
		span := interval - fire
		res.UtilizedIdle += span
		n := int64((span + t - 1) / t) // ceil: requests issued, last in flight
		delay := time.Duration(n)*t - span
		res.Collisions++
		res.SlowdownTotal += delay
		if delay > res.SlowdownMax {
			res.SlowdownMax = delay
		}
		res.ScrubbedBytes += n * bytes
	}
	return res
}

// RunAdaptive evaluates a policy whose request size may change across a
// firing burst (the exponential/linear/swapping strategies of
// Section V-C).
func RunAdaptive(in Input, pol Policy, sizes SizeFunc, svc ServiceFunc) Result {
	res := Result{
		Requests:  in.Requests,
		Span:      in.Span,
		TotalIdle: in.TotalIdle(),
	}
	for _, interval := range in.Intervals {
		fire, ok := pol.Plan(interval)
		if !ok || fire >= interval {
			continue
		}
		res.UtilizedIdle += interval - fire
		// Walk the firing burst until the interval ends.
		elapsed := fire
		k := 0
		for {
			sectors := sizes(k, elapsed-fire)
			if sectors < 1 {
				sectors = 1
			}
			t := svc(sectors)
			if elapsed+t >= interval {
				// In-flight at interval end: the arriving foreground
				// request waits for the remainder.
				delay := elapsed + t - interval
				res.Collisions++
				res.SlowdownTotal += delay
				if delay > res.SlowdownMax {
					res.SlowdownMax = delay
				}
				res.ScrubbedBytes += sectors * disk.SectorSize
				break
			}
			elapsed += t
			res.ScrubbedBytes += sectors * disk.SectorSize
			k++
		}
	}
	return res
}

// OracleFrontier returns the best achievable utilized-idle fraction at the
// given collision rate: a clairvoyant scheduler uses exactly the longest
// intervals, one collision each (Fig. 14's "Oracle" line).
func OracleFrontier(in Input, collisionRate float64) float64 {
	if len(in.Intervals) == 0 || collisionRate <= 0 {
		return 0
	}
	k := int(collisionRate * float64(in.Requests))
	if k <= 0 {
		return 0
	}
	if k > len(in.Intervals) {
		k = len(in.Intervals)
	}
	sorted := make([]time.Duration, len(in.Intervals))
	copy(sorted, in.Intervals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var used, total time.Duration
	for i, iv := range sorted {
		if i < k {
			used += iv
		}
		total += iv
	}
	if total <= 0 {
		return 0
	}
	return float64(used) / float64(total)
}

// InputFromSource derives the workload abstraction from a streaming
// trace in one pass: per-record state is constant, so the memory cost is
// the gap list itself (the analytical model's irreducible input), never
// the records. It consumes the source from its current position.
func InputFromSource(src trace.Source) (Input, error) {
	var (
		in    Input
		rec   trace.Record
		first time.Duration
		prev  time.Duration
	)
	// An in-memory source knows its length: size the gap list once.
	if s, ok := src.(interface{ Len() int }); ok && s.Len() > 1 {
		in.Intervals = make([]time.Duration, 0, s.Len()-1)
	}
	for {
		err := src.Next(&rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Input{}, err
		}
		if in.Requests == 0 {
			first = rec.Arrival
		} else if d := rec.Arrival - prev; d > 0 {
			in.Intervals = append(in.Intervals, d)
		}
		prev = rec.Arrival
		in.Requests++
	}
	if in.Requests < 2 {
		return Input{}, fmt.Errorf("idlesim: need a trace with >= 2 records, got %d", in.Requests)
	}
	in.Span = prev - first
	return in, nil
}
