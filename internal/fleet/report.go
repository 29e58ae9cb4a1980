package fleet

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// aggregate accumulates member results inside one shard. Every field is
// an integer (or an obs vector merge, which is integer adds and maxima),
// so folding shard aggregates together in shard order yields
// bit-identical totals regardless of shard count — no float sum ever
// depends on grouping.
type aggregate struct {
	members       int64
	scrubbedBytes int64
	passes        int64
	lsesFound     int64
	lsesRepaired  int64
	escalations   int64
	collisions    int64
	fgRequests    int64
	events        int64

	lsesInjected  int64
	lsesDetected  int64
	lsesRemapped  int64
	detectionTime time.Duration

	obs []classObs // per class, the merged obs values of its members
}

// classObs is one class's merged obs values: a vector of the layout its
// members' registries share.
type classObs struct {
	layout *obs.Layout
	vals   []int64
}

// add folds one member's final report (and, when instrumented, its obs
// values, a vector of layout) into the shard aggregate. Uninstrumented
// (nil layout) it is pure integer arithmetic — zero allocations, pinned
// by TestShardStepZeroAlloc.
//
//scrub:hotpath
func (a *aggregate) add(r core.Report, class int, layout *obs.Layout, vals []int64) error {
	a.members++
	a.scrubbedBytes += r.ScrubbedBytes
	a.passes += r.Passes
	a.lsesFound += r.LSEsFound
	a.lsesRepaired += r.LSEsRepaired
	a.escalations += r.Escalations
	a.collisions += r.Collisions
	a.fgRequests += r.FgRequests
	a.events += r.Events
	a.lsesInjected += r.LSEsInjected
	a.lsesDetected += r.LSEsDetected
	a.lsesRemapped += r.LSEsRemapped
	a.detectionTime += r.DetectionTime
	if layout == nil {
		return nil
	}
	return a.addObs(class, layout, vals)
}

// addObs merges a vector of layout into the class's running sum. Members
// of a class share one layout; a vector of another is an error, never a
// misread.
func (a *aggregate) addObs(class int, layout *obs.Layout, vals []int64) error {
	if class >= len(a.obs) {
		a.obs = append(a.obs, make([]classObs, class+1-len(a.obs))...)
	}
	c := &a.obs[class]
	switch {
	case c.layout == nil:
		c.layout, c.vals = layout, make([]int64, layout.Width())
	case c.layout != layout && !c.layout.Equal(layout):
		return fmt.Errorf("fleet: class %d members carry different obs layouts", class)
	}
	return c.layout.Merge(c.vals, vals)
}

// merge folds another shard's aggregate into a. Reduction happens in
// shard order so the integer sums are bit-identical for any partition.
//
//scrub:hotpath
func (a *aggregate) merge(o *aggregate) error {
	a.members += o.members
	a.scrubbedBytes += o.scrubbedBytes
	a.passes += o.passes
	a.lsesFound += o.lsesFound
	a.lsesRepaired += o.lsesRepaired
	a.escalations += o.escalations
	a.collisions += o.collisions
	a.fgRequests += o.fgRequests
	a.events += o.events
	a.lsesInjected += o.lsesInjected
	a.lsesDetected += o.lsesDetected
	a.lsesRemapped += o.lsesRemapped
	a.detectionTime += o.detectionTime
	for class, c := range o.obs {
		if c.layout == nil {
			continue
		}
		if err := a.addObs(class, c.layout, c.vals); err != nil {
			return err
		}
	}
	return nil
}

// Report is the fleet-wide campaign summary: exact integer totals over
// all members, float rates derived from them once at the end, and (when
// instrumented) the merged metrics view of every member registry.
type Report struct {
	Members int64
	Horizon time.Duration

	ScrubbedBytes int64
	Passes        int64
	LSEsFound     int64
	LSEsRepaired  int64
	Escalations   int64
	FgRequests    int64
	Collisions    int64
	Events        int64 // total simulator events fired across members

	LSEsInjected  int64
	LSEsDetected  int64
	LSEsRemapped  int64
	DetectionTime time.Duration

	// Derived rates (computed from the exact totals above).
	ScrubMBps      float64 // aggregate scrub rate over the horizon
	DetectionRatio float64
	MeanTTD        time.Duration

	Obs obs.Snapshot // merged fleet metrics (zero when uninstrumented)
}

// String renders a one-line summary.
func (r *Report) String() string {
	s := fmt.Sprintf("fleet[%d]: %.2f MB/s aggregate, %d passes, %d LSEs found, %d repaired",
		r.Members, r.ScrubMBps, r.Passes, r.LSEsFound, r.LSEsRepaired)
	if r.LSEsInjected > 0 {
		s += fmt.Sprintf("; faults: %d injected, %d detected (%.1f%%), mean TTD %v",
			r.LSEsInjected, r.LSEsDetected, 100*r.DetectionRatio, r.MeanTTD)
	}
	return s
}

// reduce folds shard aggregates (in shard order) into the fleet report.
func reduce(aggs []aggregate, members int, horizon time.Duration) (*Report, error) {
	var total aggregate
	for i := range aggs {
		if err := total.merge(&aggs[i]); err != nil {
			return nil, err
		}
	}
	if total.members != int64(members) {
		return nil, fmt.Errorf("fleet: aggregated %d of %d members", total.members, members)
	}
	r := &Report{
		Members:       total.members,
		Horizon:       horizon,
		ScrubbedBytes: total.scrubbedBytes,
		Passes:        total.passes,
		LSEsFound:     total.lsesFound,
		LSEsRepaired:  total.lsesRepaired,
		Escalations:   total.escalations,
		FgRequests:    total.fgRequests,
		Collisions:    total.collisions,
		Events:        total.events,
		LSEsInjected:  total.lsesInjected,
		LSEsDetected:  total.lsesDetected,
		LSEsRemapped:  total.lsesRemapped,
		DetectionTime: total.detectionTime,
	}
	if horizon > 0 {
		r.ScrubMBps = float64(r.ScrubbedBytes) / 1e6 / horizon.Seconds()
	}
	if r.LSEsInjected > 0 {
		r.DetectionRatio = float64(r.LSEsDetected) / float64(r.LSEsInjected)
	}
	if r.LSEsDetected > 0 {
		r.MeanTTD = r.DetectionTime / time.Duration(r.LSEsDetected)
	}
	if len(total.obs) > 0 {
		var snaps []obs.Snapshot
		for _, c := range total.obs {
			if c.layout == nil {
				continue
			}
			snap, err := c.layout.Snapshot(c.vals)
			if err != nil {
				return nil, err
			}
			snaps = append(snaps, snap)
		}
		var err error
		if r.Obs, err = obs.MergeSnapshots(snaps...); err != nil {
			return nil, err
		}
	}
	return r, nil
}
