// Package blockdev models the Linux block layer of the paper's Section III:
// a request queue in front of a disk, a pluggable I/O scheduler (elevator),
// and the soft-barrier semantics that penalize user-level scrubbers whose
// VERIFY commands arrive via ioctl passthrough. Kernel-level scrub requests
// are "disguised as regular reads bearing all relevant information" and so
// flow through the scheduler like any other request; user-level scrub
// requests are soft barriers: they drain the queue, execute alone, cannot
// be sorted or merged, and ignore I/O priorities.
package blockdev

import (
	"fmt"
	"time"

	"repro/internal/disk"
)

// Origin distinguishes foreground application requests from background
// scrub requests for accounting and collision detection.
type Origin int

const (
	// Foreground marks application I/O.
	Foreground Origin = iota + 1
	// Scrub marks background scrubber I/O.
	Scrub
)

// String implements fmt.Stringer.
func (o Origin) String() string {
	switch o {
	case Foreground:
		return "foreground"
	case Scrub:
		return "scrub"
	default:
		return fmt.Sprintf("Origin(%d)", int(o))
	}
}

// Class is an I/O priority class, mirroring CFQ's RT/BE/Idle classes.
type Class int

const (
	// ClassRT is the real-time priority class.
	ClassRT Class = iota + 1
	// ClassBE is best-effort, the default class.
	ClassBE
	// ClassIdle is CFQ's idle class: served only when the disk has been
	// idle for the scheduler's idle gate (10 ms by default).
	ClassIdle
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassRT:
		return "rt"
	case ClassBE:
		return "be"
	case ClassIdle:
		return "idle"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Request is one block-layer request.
type Request struct {
	Op      disk.Op
	LBA     int64
	Sectors int64
	// Class is the I/O priority class (ignored for barrier requests,
	// which is exactly the user-level scrubber's problem).
	Class Class
	// Origin tags the request's producer.
	Origin Origin
	// Tag identifies the issuing context (process) for per-process
	// scheduling; by convention 0 is the foreground workload and 1 the
	// scrubber.
	Tag int
	// Barrier marks a soft-barrier passthrough command (ioctl VERIFY from
	// user space): all earlier requests must complete before it runs, it
	// runs alone, and later requests wait for it.
	Barrier bool
	// BypassCache requests FUA-like medium access.
	BypassCache bool
	// ID is producer-owned correlation state (e.g. the trace replayer's
	// record index); the block layer never reads it.
	ID int64

	// OnComplete, if set, fires when the request completes.
	OnComplete func(*Request)

	// Timestamps filled in by the queue.
	Submit   time.Duration
	Dispatch time.Duration
	Done     time.Duration

	// Collision reports that the request arrived while a scrub request
	// was occupying the disk: the paper's definition of a collision.
	Collision bool
	// CacheHit reports on-disk cache service.
	CacheHit bool
	// LSEs carries latent sector errors detected by this request.
	LSEs []int64
	// Err is the terminal error of a failed request (a *disk.MediumError
	// once the queue's retry policy is spent); nil on success. A request
	// that detected LSEs still completes "successfully" from the queue's
	// point of view — Err records that the device gave up on the data,
	// LSEs record what was learned either way.
	Err error
	// Retries counts how many times the queue re-serviced this request
	// after a medium error.
	Retries int

	seq uint64
	// pooled marks a request owned by its queue's free list (obtained via
	// GetRequest); the queue recycles it once completion has fully run.
	pooled bool
	// absorbed marks a request merged into another by AbsorbMerge, until
	// that request completes; an instrumented queue no longer counts it
	// as held (see Scheduler).
	absorbed bool
	// mergeOf lists requests absorbed into this one by elevator merging;
	// they complete when this request completes.
	mergeOf []*Request
}

// reset clears every field for pool reuse, keeping only the pooled mark
// and the mergeOf backing array's capacity. Reference-typed fields (LSEs,
// Err, OnComplete, merge pointers) are explicitly dropped so no result
// state can leak from one pooled use into the next —
// TestPooledRequestPoisoned pins this down.
func (r *Request) reset() {
	mergeOf := r.mergeOf
	for i := range mergeOf {
		mergeOf[i] = nil
	}
	*r = Request{pooled: true, mergeOf: mergeOf[:0]}
}

// AbsorbMerge records that other was merged into r, extending r to cover
// it. Schedulers call this when back-merging sequential requests.
func (r *Request) AbsorbMerge(other *Request) {
	r.Sectors += other.Sectors
	r.mergeOf = append(r.mergeOf, other)
	other.absorbed = true
}

// MergedCount returns how many requests were absorbed into this one.
func (r *Request) MergedCount() int { return len(r.mergeOf) }

// Bytes returns the request length in bytes.
func (r *Request) Bytes() int64 { return r.Sectors * disk.SectorSize }

// ResponseTime returns Done - Submit.
func (r *Request) ResponseTime() time.Duration { return r.Done - r.Submit }

// WaitTime returns Dispatch - Submit (queueing delay).
func (r *Request) WaitTime() time.Duration { return r.Dispatch - r.Submit }

// Scheduler is the elevator interface. Implementations live in package
// iosched. The queue calls Add when a request enters the elevator, Next
// whenever the device becomes available, and OnComplete at each
// completion. Next either returns a dispatchable request, or nil and an
// optional future time at which dispatching should be retried (zero means
// "only retry on the next Add/OnComplete").
//
// An elevator merges only inside Add, and only by calling AbsorbMerge
// on a request it holds with the request being added (a back-merge).
// The queue's held count, which blockdev.queue_depth reports, drops the
// added request when Add absorbs it that way; a merge made anywhere
// else (at Next, or a front-merge absorbing a queued request into the
// new one) would leave that count too high.
type Scheduler interface {
	Add(r *Request, now time.Duration)
	Next(now time.Duration) (*Request, time.Duration)
	OnComplete(r *Request, now time.Duration)
	Len() int
}
