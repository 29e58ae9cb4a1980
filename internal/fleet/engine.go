// Package fleet is the sharded million-drive campaign engine. Keeping
// every member's full simulation stack live would cost gigabytes at
// datacenter scale, so the engine keeps members parked as compact
// states — a core.SystemState plus, instrumented, a dense vector of its
// obs values; a checkpoint of the fleet-sweep benchmark's members takes
// about 2.5 kB per member (fleet.state_bytes_per_member, 2526 B) — and
// only hydrates a member while advancing it one time slice. Hydrating
// builds nothing: a shard takes a set of live stacks, one per class,
// from a free list that outlives the slice, and restores member after
// member onto them in place (core.System.Restore plus
// obs.Registry.SetValues, one copy); parking is a state snapshot plus
// obs.Registry.AppendValues into the member's own buffer. Members
// stripe into shards executed over internal/par with work stealing, so
// live memory is bounded by workers × classes, not the fleet size or
// the number of shards and slices; per-member results reduce through
// integer-exact, commutative merges, so every report is byte-identical
// across shard and worker counts — and to running each member live,
// start to horizon, on its own.
package fleet

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
)

// MemberClass describes one homogeneous slice of the fleet: Count drives
// built from the same configuration template. Members differ only in
// their fault seed, derived from (engine seed, class name, member index)
// — never from shard or worker placement — which is what makes every
// member's trajectory independent of how the fleet is partitioned.
type MemberClass struct {
	Name   string
	Count  int
	Config core.Config
}

// Config shapes the engine.
type Config struct {
	// Shards is the number of contiguous member stripes executed (and
	// stolen) as scheduling units. Default 1. Results never depend on it.
	Shards int
	// Workers bounds concurrent goroutines (and therefore live member
	// stacks: one per class per running shard). <= 0 means GOMAXPROCS.
	Workers int
	// Slice is the park cadence: members are advanced Slice of virtual
	// time, rolled forward to a parkable state and serialized. <= 0 means
	// one slice (members stay live from hydration to the horizon).
	Slice time.Duration
	// Seed is the base seed for per-member fault-stream derivation.
	Seed int64
	// Instrument gives every member its own obs registry; per-member
	// snapshots merge into the fleet view of the final report.
	Instrument bool
	// KeepMembers retains every member's final Report (MemberReports)
	// and, instrumented, its obs snapshot, which the determinism tests
	// compare member by member (test- and small-fleet-scale; a million
	// reports is not "compact").
	KeepMembers bool
}

// member is one member between slices: its identity and, once parked,
// its serialized state and, instrumented, its dense obs values.
// Checkpoints encode it as a memberSlot.
type member struct {
	class, idx int
	state      *core.SystemState
	vals       []int64 // the member's registry values (obs.Registry.AppendValues)
	done       bool
}

// Engine advances a fleet of serialized members slice by slice.
type Engine struct {
	cfg     Config
	classes []MemberClass
	slots   []member
	now     time.Duration
	done    bool //scrublint:transient Checkpoint refuses a finished campaign

	finalReports []core.Report  //scrublint:transient per-member results exist only after Run; Checkpoint refuses then
	finalObs     []obs.Snapshot //scrublint:transient per-member snapshots exist only after Run; Checkpoint refuses then

	stacks stackPool //scrublint:transient live stacks, overwritten by every hydrate; a resumed engine builds its own
}

// rollForwardCap bounds the events a member may fire past a slice
// boundary while seeking a parkable state. Non-parkable states resolve
// within device-latency timescales (an in-flight merged burst completes,
// an elevator drains), so hitting this cap means a bug, not a big fleet.
const rollForwardCap = 1 << 20

// New builds an engine over the given classes.
func New(cfg Config, classes []MemberClass) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	total := 0
	for i, c := range classes {
		if c.Count <= 0 {
			return nil, fmt.Errorf("fleet: class %d (%q) has count %d", i, c.Name, c.Count)
		}
		if c.Config.Obs != nil {
			return nil, fmt.Errorf("fleet: class %q sets Config.Obs; use Config.Instrument — registries are per-member", c.Name)
		}
		total += c.Count
	}
	if total == 0 {
		return nil, fmt.Errorf("fleet: no members")
	}
	e := &Engine{cfg: cfg, classes: classes, slots: make([]member, 0, total)}
	for ci, c := range classes {
		for i := 0; i < c.Count; i++ {
			e.slots = append(e.slots, member{class: ci, idx: i})
		}
	}
	return e, nil
}

// stack is one live member stack of a class: a built core.System and,
// instrumented, its registry. A shard restores every member it advances
// onto its set's stack of the member's class in place, and the set goes
// back to the engine's stackPool for the next shard or slice — the
// stack is built once per worker, never per member, shard or slice — so
// live memory is bounded by Workers × classes.
type stack struct {
	sys *core.System
	reg *obs.Registry // nil when uninstrumented
	// layout is the registry's schema: members' parked values and the
	// shard aggregate are vectors of it.
	layout *obs.Layout
	// pristine and zero are the stack before Start: the state and obs
	// values a first-sight member starts from. pristine is nil for a
	// class that cannot park (its policy or scheduler has no
	// serializable state); such members only run unsliced.
	pristine *core.SystemState
	zero     []int64
}

// newStack builds a live stack of class with the given fault seed and
// records its pre-Start state.
func (e *Engine) newStack(class int, seed int64) (*stack, error) {
	cfg := e.classes[class].Config
	cfg.FaultSeed = seed
	st := &stack{}
	if e.cfg.Instrument {
		st.reg = obs.New()
		cfg.Obs = st.reg
	}
	sys, err := core.NewFromConfig(cfg)
	if err != nil {
		return nil, err
	}
	st.sys = sys
	if sys.Parkable() == nil {
		st.pristine = new(core.SystemState)
		if err := sys.Snapshot(st.pristine); err != nil {
			return nil, err
		}
	}
	if st.reg != nil {
		st.layout = st.reg.Layout()
		st.zero = st.reg.AppendValues(nil)
	}
	return st, nil
}

// hydrate brings one member live on its class's stack: a restore in
// place from its parked state and values or, on first sight, from the
// class's pristine state with the member's own fault seed, then Start.
// The shard's first member of a class builds the stack with its own
// seed; so does every first-sight member of a class that cannot park.
// The fault seed derives from identity alone.
func (e *Engine) hydrate(m *member, stacks []*stack) (*stack, error) {
	seed := par.SubSeed(e.cfg.Seed, e.classes[m.class].Name, strconv.Itoa(m.idx))
	st := stacks[m.class]
	if st == nil || (m.state == nil && st.pristine == nil) {
		var err error
		if st, err = e.newStack(m.class, seed); err != nil {
			return nil, err
		}
		stacks[m.class] = st
		if m.state == nil {
			st.sys.Start()
			return st, nil
		}
	}
	state, vals := m.state, m.vals
	if state == nil {
		state, vals = st.pristine, st.zero
	}
	if err := st.sys.Restore(state, seed); err != nil {
		return nil, err
	}
	if st.reg != nil {
		if err := st.reg.SetValues(vals); err != nil {
			return nil, err
		}
	}
	if m.state == nil {
		st.sys.Start()
	}
	return st, nil
}

// memberErr wraps a member-indexed failure. It lives outside the
// hot-path annotation on purpose: every call site is a cold error path,
// and keeping the formatter here keeps allocation out of the annotated
// steady-state loop.
func memberErr(i int, err error) error {
	return fmt.Errorf("fleet: member %d: %w", i, err)
}

// rollForwardErr reports a member that never reached a parkable state —
// a bug in a component's quiescence accounting, not a big fleet.
func rollForwardErr(i int, boundary time.Duration, reason error) error {
	return fmt.Errorf("fleet: member %d: no parkable state within %d events of %v: %w",
		i, rollForwardCap, boundary, reason)
}

// advance runs one member to boundary on its class's stack. Mid-campaign
// the member rolls forward to a parkable state, and parking is a state
// snapshot plus a copy of its registry values into the slot's buffer; on
// the final slice it stays live to exactly the horizon — so its report
// and metrics are read at the same instant a monolithic run would read
// them — and finalizes. Either way the stack is left for the next member
// to overwrite.
//
//scrub:hotpath
func (e *Engine) advance(ctx context.Context, i int, boundary time.Duration, final bool, agg *aggregate, stacks []*stack) error {
	m := &e.slots[i]
	if m.done {
		return nil
	}
	st, err := e.hydrate(m, stacks)
	if err != nil {
		return memberErr(i, err)
	}
	if m.vals == nil && st.reg != nil {
		// The member's first park: size its value buffer once rather
		// than growing it through append.
		m.vals = make([]int64, 0, st.layout.Width())
	}
	sys := st.sys
	if now := sys.Sim.Now(); now < boundary {
		if err := sys.RunFor(ctx, boundary-now); err != nil {
			return memberErr(i, err)
		}
	}
	if final {
		rep := sys.Report()
		vals := st.reg.AppendValues(m.vals[:0])
		if err := agg.add(rep, m.class, st.layout, vals); err != nil {
			return memberErr(i, err)
		}
		if e.cfg.KeepMembers {
			e.finalReports[i] = rep
			if st.reg != nil {
				if e.finalObs[i], err = st.layout.Snapshot(vals); err != nil {
					return memberErr(i, err)
				}
			}
		}
		m.state, m.vals, m.done = nil, nil, true
		return nil
	}
	steps := 0
	for sys.Parkable() != nil {
		if steps++; steps > rollForwardCap {
			return rollForwardErr(i, boundary, sys.Parkable())
		}
		if !sys.Sim.Step() {
			break
		}
	}
	if m.state == nil {
		m.state = new(core.SystemState)
	}
	if err := sys.Snapshot(m.state); err != nil {
		return memberErr(i, err)
	}
	m.vals = st.reg.AppendValues(m.vals[:0])
	return nil
}

// stackPool is an engine's free list of stack sets (one stack per
// class, indexed by class, each built on first use), kept across
// slices. A shard takes a set and returns it when its members are done,
// so no more sets exist than shards run at once: Workers.
type stackPool struct {
	mu   sync.Mutex
	free [][]*stack
}

// get returns a free set, or a new empty one of classes stacks.
func (p *stackPool) get(classes int) []*stack {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return make([]*stack, classes)
	}
	set := p.free[n-1]
	p.free = p.free[:n-1]
	return set
}

// put returns a set to the pool.
func (p *stackPool) put(set []*stack) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.free = append(p.free, set)
}

// runSlice advances every member to boundary, striping members into
// shards and executing the shards over the work-stealing pool. Each
// shard owns a contiguous member range, a set of stacks from the
// engine's free list and a private aggregate filled in member order, so
// reduction over shards (in shard order, integer-exact merges) is
// independent of which worker ran what when.
func (e *Engine) runSlice(ctx context.Context, boundary time.Duration, final bool, aggs []aggregate) error {
	n := len(e.slots)
	shards := e.cfg.Shards
	if shards > n {
		shards = n
	}
	return par.StealingForEach(ctx, e.cfg.Workers, shards, func(ctx context.Context, s int) error {
		lo, hi := s*n/shards, (s+1)*n/shards
		stacks := e.stacks.get(len(e.classes))
		defer e.stacks.put(stacks)
		for i := lo; i < hi; i++ {
			if err := e.advance(ctx, i, boundary, final, &aggs[s], stacks); err != nil {
				return err
			}
		}
		return nil
	})
}

// Advance parks the fleet at virtual time t without finalizing anyone,
// proceeding slice by slice. It is the checkpointable waypoint: after
// Advance, every member is serialized and Checkpoint can write the whole
// fleet to disk.
func (e *Engine) Advance(ctx context.Context, t time.Duration) error {
	if e.done {
		return fmt.Errorf("fleet: campaign already finished")
	}
	if t <= e.now {
		return fmt.Errorf("fleet: Advance(%v) not ahead of %v", t, e.now)
	}
	for e.now < t {
		boundary := t
		if e.cfg.Slice > 0 && e.now+e.cfg.Slice < t {
			boundary = e.now + e.cfg.Slice
		}
		if err := e.runSlice(ctx, boundary, false, make([]aggregate, e.cfg.Shards)); err != nil {
			return err
		}
		e.now = boundary
	}
	return nil
}

// Run finishes the campaign at the horizon: slices up to the last
// boundary, then a final slice in which every member runs live to
// exactly horizon and reports. Continues from wherever a previous
// Advance (or a Resume) left the fleet.
func (e *Engine) Run(ctx context.Context, horizon time.Duration) (*Report, error) {
	if e.done {
		return nil, fmt.Errorf("fleet: campaign already finished")
	}
	if horizon <= e.now {
		return nil, fmt.Errorf("fleet: horizon %v not ahead of %v", horizon, e.now)
	}
	if e.cfg.Slice > 0 && e.now+e.cfg.Slice < horizon {
		if err := e.Advance(ctx, horizon-e.cfg.Slice); err != nil {
			return nil, err
		}
	}
	if e.cfg.KeepMembers {
		e.finalReports = make([]core.Report, len(e.slots))
		if e.cfg.Instrument {
			e.finalObs = make([]obs.Snapshot, len(e.slots))
		}
	}
	aggs := make([]aggregate, e.cfg.Shards)
	if err := e.runSlice(ctx, horizon, true, aggs); err != nil {
		return nil, err
	}
	e.now = horizon
	e.done = true
	e.stacks.free = nil // a finished campaign hydrates no one
	return reduce(aggs, len(e.slots), horizon)
}

// MemberReports returns the per-member final reports (KeepMembers only;
// nil otherwise), indexed in member order.
func (e *Engine) MemberReports() []core.Report { return e.finalReports }
