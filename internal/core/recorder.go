package core

import (
	"context"
	"errors"
	"sort"
	"time"

	"repro/internal/blockdev"
	"repro/internal/disk"
	"repro/internal/optimize"
	"repro/internal/trace"
)

// Recorder captures a System's live foreground request stream as trace
// records, closing the paper's adaptive loop: "The simulations can be
// repeated to adapt the parameter values if the workload changes
// substantially" (Section V-D). Attach one, let it observe, then Retune.
type Recorder struct {
	sys     *System
	records []trace.Record
	started time.Duration
	window  time.Duration
}

// AttachRecorder subscribes a Recorder to the system's queue. window
// bounds the retained history (older records are discarded); zero keeps
// everything.
//
//scrublint:allow unusedexport ROADMAP item 14 puts the optimizer inside the daemon
func (sys *System) AttachRecorder(window time.Duration) *Recorder {
	rec := &Recorder{sys: sys, started: sys.Sim.Now(), window: window}
	sys.Queue.SubscribeSubmit(func(r *blockdev.Request) {
		if r.Origin != blockdev.Foreground {
			return
		}
		rec.records = append(rec.records, trace.Record{
			Arrival: sys.Sim.Now(),
			LBA:     r.LBA,
			Sectors: r.Sectors,
			Write:   r.Op == disk.OpWrite,
		})
		rec.trim()
	})
	return rec
}

// live returns the retained records inside the window, oldest first.
// Records fall out of the window between compactions, so every reader
// goes through live rather than the backing slice.
func (rec *Recorder) live() []trace.Record {
	if rec.window <= 0 {
		return rec.records
	}
	cutoff := rec.sys.Sim.Now() - rec.window
	i := sort.Search(len(rec.records), func(i int) bool { return rec.records[i].Arrival >= cutoff })
	return rec.records[i:]
}

// trim compacts the backing slice once more than a quarter of it has
// fallen out of the window, so compaction costs amortised O(1) per record.
func (rec *Recorder) trim() {
	live := rec.live()
	if drop := len(rec.records) - len(live); drop > len(rec.records)/4 {
		rec.records = append(rec.records[:0], live...)
	}
}

// Len returns the number of records inside the window.
func (rec *Recorder) Len() int { return len(rec.live()) }

// Records returns a copy of the records inside the window, rebased to
// start at zero (a ready-made tuning profile).
func (rec *Recorder) Records() []trace.Record {
	live := rec.live()
	if len(live) == 0 {
		return nil
	}
	base := live[0].Arrival
	out := make([]trace.Record, len(live))
	for i, r := range live {
		r.Arrival -= base
		out[i] = r
	}
	return out
}

// Retune re-runs the optimizer on the recorded history and applies the
// new request size and threshold to the running system. It returns the
// new choice. Only Waiting-policy systems can be retuned.
//
//scrublint:allow unusedexport ROADMAP item 14 puts the optimizer inside the daemon
func (rec *Recorder) Retune(goal optimize.Goal) (optimize.Choice, error) {
	if rec.sys.cfg.Policy != PolicyWaiting {
		return optimize.Choice{}, errors.New("core: only waiting-policy systems retune")
	}
	records := rec.Records()
	if len(records) < 64 {
		return optimize.Choice{}, errors.New("core: not enough recorded history to retune")
	}
	if rec.sys.Disk == nil {
		return optimize.Choice{}, errors.New("core: retuning needs the rotational idle-time model; " + rec.sys.Device.ModelName() + " has none")
	}
	choice, err := AutoTune(context.Background(), trace.NewSliceSource("", 0, records), rec.sys.Disk.Model(), goal, 1)
	if err != nil {
		return optimize.Choice{}, err
	}
	rec.sys.ApplyTuning(choice)
	return choice, nil
}

// ApplyTuning updates a running Waiting-policy system's scrub request
// size and wait threshold in place. The in-flight request and the current
// algorithm pass position are unaffected.
func (sys *System) ApplyTuning(choice optimize.Choice) {
	sys.cfg.ReqBytes = choice.ReqSectors * disk.SectorSize
	sys.cfg.WaitThreshold = choice.Threshold
	sys.Scrubber.SetSize(choice.ReqSectors)
	if w, ok := sys.policy.(interface{ SetThreshold(time.Duration) }); ok {
		w.SetThreshold(choice.Threshold)
	}
}
