package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/fleet"
	"repro/internal/iosched"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Layers without an interface seam are measured by their marginal cost:
// the ladder replays the first segment of a replay workload through ever
// taller stacks, and the fleet ablations switch one engine feature at a
// time.

// ladderWindow is the look-ahead the bare-simulator rung keeps scheduled,
// the replayer's default.
const ladderWindow = 4096

// constDevice serves every command in a fixed time: the ladder's stand-in
// for the device model, so the blockdev rung costs the queue and the
// elevator but not the seek model.
type constDevice struct {
	sectors int64
	served  int64
}

const constLatency = 4 * time.Millisecond

func (d *constDevice) Service(req disk.Request, now time.Duration) (disk.Result, error) {
	d.served++
	return disk.Result{Start: now, Done: now + constLatency}, nil
}
func (d *constDevice) Sectors() int64                     { return d.sectors }
func (d *constDevice) Capacity() int64                    { return d.sectors * disk.SectorSize }
func (d *constDevice) InjectLSE(int64)                    {}
func (d *constDevice) RepairLSE(int64)                    {}
func (d *constDevice) LSECount() int                      { return 0 }
func (d *constDevice) Stats() (served, media, hits int64) { return d.served, d.served, 0 }
func (d *constDevice) Instrument(*obs.Registry)           {}
func (d *constDevice) ModelName() string                  { return "constant-latency" }

// rung is one stack of the ladder; run replays the prefix once.
type rung struct {
	name string
	run  func() error
}

func ladderProbe(jobs []*job, budget float64, m map[string]float64) error {
	rj := jobs[0].replay
	spec := rj.spec
	spec.faults = nil
	replayOn := func(s *sim.Simulator, q *blockdev.Queue) error {
		src, err := rj.open()
		if err != nil {
			return err
		}
		defer trace.CloseSource(src)
		res, err := (&replay.Replayer{}).RunSource(s, q, src, rj.sectors)
		if err == nil && res.Requests != rj.records {
			err = fmt.Errorf("ladder replayed %d of %d records", res.Requests, rj.records)
		}
		return err
	}
	withPolicy := func(p core.PolicyKind, instrumented bool) func() error {
		sp := spec
		sp.policy, sp.obs = p, instrumented
		return func() error {
			st, err := sp.build()
			if err != nil {
				return err
			}
			return replayOn(st.sim, st.q)
		}
	}
	rungs := []rung{
		{"trace", func() error {
			src, err := rj.open()
			if err != nil {
				return err
			}
			defer trace.CloseSource(src)
			var rec trace.Record
			for {
				if err := src.Next(&rec); err == io.EOF {
					return nil
				} else if err != nil {
					return err
				}
			}
		}},
		{"sim", func() error {
			src, err := rj.open()
			if err != nil {
				return err
			}
			defer trace.CloseSource(src)
			s := sim.New()
			var rec trace.Record
			var pull sim.EventFunc
			pull = func(any, time.Duration) {
				if src.Next(&rec) == nil {
					s.Schedule(rec.Arrival, pull, nil)
				}
			}
			for i := 0; i < ladderWindow; i++ {
				pull(nil, 0)
			}
			return s.Run()
		}},
		{"blockdev", func() error {
			s := sim.New()
			return replayOn(s, blockdev.NewQueue(s, &constDevice{sectors: spec.model.Sectors()}, iosched.NewCFQ()))
		}},
		{"disk", func() error {
			d, err := disk.New(spec.model)
			if err != nil {
				return err
			}
			s := sim.New()
			return replayOn(s, blockdev.NewQueue(s, d, iosched.NewCFQ()))
		}},
		{"scrub_waiting", withPolicy(core.PolicyWaiting, false)},
		{"scrub_ar", withPolicy(core.PolicyAR, false)},
		{"obs", withPolicy(spec.policy, true)},
	}

	ns := make([][]float64, len(rungs))
	allocs := make([][]float64, len(rungs))
	recs := float64(rj.records)
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for i, r := range rungs {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			t0 := time.Now()
			if err := r.run(); err != nil {
				return fmt.Errorf("ladder rung %s: %w", r.name, err)
			}
			ns[i] = append(ns[i], float64(time.Since(t0))/recs)
			runtime.ReadMemStats(&ms1)
			allocs[i] = append(allocs[i], float64(ms1.Mallocs-ms0.Mallocs)/recs)
		}
	}
	med := func(i int) float64 { return median(ns[i]) }
	al := func(i int) float64 { return median(allocs[i]) }
	const trc, sm, blk, dsk, wait, ar, ob = 0, 1, 2, 3, 4, 5, 6
	full := med(wait)
	m["ladder.trace.frac"] = med(trc) / full
	m["ladder.sim.frac"] = (med(sm) - med(trc)) / full
	m["ladder.blockdev.frac"] = (med(blk) - med(sm)) / full
	m["ladder.disk.frac"] = (med(dsk) - med(blk)) / full
	m["ladder.scrub_waiting.frac"] = (med(wait) - med(dsk)) / full
	m["ladder.scrub_ar.frac"] = (med(ar) - med(dsk)) / full
	m["ladder.obs.frac"] = (med(ob) - med(wait)) / full
	m["ladder.scrub_waiting.allocs_per_record"] = al(wait) - al(dsk)
	m["ladder.scrub_ar.allocs_per_record"] = al(ar) - al(dsk)
	m["ladder.obs.allocs_per_record"] = al(ob) - al(wait)
	return nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// fleetProbe times the first campaign with one engine feature changed at
// a time: one worker instead of two, one slice instead of parking every
// Slice, and no per-member instrumentation. Each variant must report
// exactly what the campaign reports.
func fleetProbe(jobs []*job, budget float64, m map[string]float64) error {
	base := *jobs[0].campaign
	oneWorker, oneSlice, bare := base, base, base
	oneWorker.cfg.Workers = 1
	oneSlice.cfg.Slice = 0
	bare.cfg.Instrument = false
	variants := []fleetCampaign{base, oneWorker, oneSlice, bare}

	rep, err := base.run()
	if err != nil {
		return err
	}
	want, err := fleetResult(rep, false)
	if err != nil {
		return err
	}
	times := make([][]float64, len(variants))
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for i, v := range variants {
			t0 := time.Now()
			rep, err := v.run()
			if err != nil {
				return err
			}
			times[i] = append(times[i], elapsed(t0))
			got, err := fleetResult(rep, false)
			if err != nil {
				return err
			}
			if got.digest != want.digest {
				return fmt.Errorf("fleet variant %d reported differently than the campaign", i)
			}
		}
	}
	t := func(i int) float64 { return median(times[i]) }
	m["par.speedup_2w"] = t(1) / t(0)
	m["fleet.park_frac"] = (t(0) - t(2)) / t(0)
	m["fleet.obs_frac"] = (t(0) - t(3)) / t(0)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if _, err := base.run(); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	drives := float64(base.drives)
	m["fleet.allocs_per_member"] = float64(ms1.Mallocs-ms0.Mallocs) / drives
	m["fleet.alloc_bytes_per_member"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / drives

	e, err := fleet.New(base.cfg, fleetClasses(base.drives))
	if err != nil {
		return err
	}
	if err := e.Advance(context.Background(), base.cfg.Slice); err != nil {
		return err
	}
	var cw countingWriter
	if err := e.Checkpoint(&cw); err != nil {
		return err
	}
	m["fleet.state_bytes_per_member"] = float64(cw.n) / drives
	return nil
}
