// Package snapshotdrift exercises the snapshot-completeness analyzer:
// the st rule (fields beside a component's state, with the func, Timer
// and obs exemptions), directive pairing for builder-pattern frames, renames and
// tuple clocks, and the transient directive with and without a reason.
package snapshotdrift

import (
	"repro/internal/obs"
	"repro/internal/sim"
)

// State is Disk's live state.
type State struct {
	Pos    int64
	Served uint64
}

// Disk is the canonical component: its state lives in st, so only what
// sits beside it is audited.
type Disk struct {
	st State

	model string // want `field Disk.model sits beside its state st`
	//scrublint:transient rebuilt cold on restore
	cache  []byte
	onDone func(int64)
	retry  sim.Timer
	kick   *sim.Timer // want `field Disk.kick sits beside its state st`
	hooks  []func()
	hits   *obs.Counter
	svc    [3]*obs.Histogram
	reg    *obs.Registry
	snap   obs.Snapshot // want `field Disk.snap sits beside its state st`
	//scrublint:transient
	bare int // want `transient directive on Disk.bare needs a reason`
	a, b int // want `field Disk.a sits beside` `field Disk.b sits beside`
}

// Engine is checkpointed by a builder-pattern frame, paired via the
// //scrublint:snapshot directive on the frame type, with one rename.
type Engine struct {
	cfg      string
	now      int64
	lastNano int64
	done     bool // want `live field Engine.done is not captured by engineFrame`
}

// engineFrame is the serialized form of a checkpointed Engine.
//
//scrublint:snapshot Engine lastNano=LastNanos
type engineFrame struct {
	Cfg       string
	Now       int64
	LastNanos int64
}

// Clock is captured as a tuple by a directive-annotated method with
// named results.
type Clock struct {
	now  int64
	seq  uint64
	wall int64 // want `live field Clock.wall is not captured by Read\(\)`
	tick func()
}

// Read captures the clock as a tuple.
//
//scrublint:snapshot Clock
func (c *Clock) Read() (now int64, seq uint64) { return c.now, c.seq }

// Exporter has neither an st field nor a directive: not a checkpoint,
// so nothing is audited.
type Exporter struct {
	rows   []string
	pretty bool
}
