package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/durable"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Checkpoint layout: the gob-encoded fleet in one durable frame behind
// this magic.
const checkpointMagic = "SCRBFLT1"

// checkpointVersion gates decode compatibility.
const checkpointVersion = 1

// memberSlot is a member as the checkpoint encodes it: its dense obs
// values travel as the name-keyed snapshot of checkpoint version 1.
type memberSlot struct {
	Class int
	Idx   int
	State *core.SystemState
	Obs   *obs.Snapshot
	Done  bool
}

// checkpoint is the serialized fleet between slices.
//
//scrublint:snapshot Engine
type checkpoint struct {
	Version int
	Cfg     Config
	Classes []MemberClass
	Now     time.Duration
	Slots   []memberSlot
}

func init() {
	// Fault and device models travel inside core.Config as interface
	// values; gob needs the concrete types registered. Custom models
	// outside this set must be registered by the caller before Checkpoint.
	gob.Register(fault.Uniform{})
	gob.Register(fault.Bursty{})
	gob.Register(fault.Accelerated{})
	gob.Register(disk.Model{})
	gob.Register(disk.SSDModel{})
}

// Checkpoint serializes the whole fleet. Valid only while every member
// is parked (after Advance, before Run finishes) or before the first
// slice; a finished campaign has discarded its member states.
func (e *Engine) Checkpoint(w io.Writer) error {
	if e.done {
		return fmt.Errorf("fleet: cannot checkpoint a finished campaign")
	}
	slots, err := e.wireSlots()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpoint{
		Version: checkpointVersion,
		Cfg:     e.cfg,
		Classes: e.classes,
		Now:     e.now,
		Slots:   slots,
	}); err != nil {
		return fmt.Errorf("fleet: encode checkpoint: %w", err)
	}
	_, err = durable.WriteFrame(w, checkpointMagic, buf.Bytes())
	return err
}

// layouts returns each class's obs layout, the schema of its members'
// dense values, from a stack built for the purpose: every instrument is
// registered when a stack is built, so a running member's registry has
// the same layout.
func (e *Engine) layouts() ([]*obs.Layout, error) {
	out := make([]*obs.Layout, len(e.classes))
	for ci := range e.classes {
		cfg := e.classes[ci].Config
		reg := obs.New()
		cfg.Obs = reg
		if _, err := core.NewFromConfig(cfg); err != nil {
			return nil, err
		}
		out[ci] = reg.Layout()
	}
	return out, nil
}

// wireSlots returns the members as the checkpoint encodes them, each
// instrumented member's dense values as a name-keyed obs snapshot.
func (e *Engine) wireSlots() ([]memberSlot, error) {
	var layouts []*obs.Layout
	if e.cfg.Instrument {
		var err error
		if layouts, err = e.layouts(); err != nil {
			return nil, err
		}
	}
	slots := make([]memberSlot, len(e.slots))
	for i, m := range e.slots {
		slots[i] = memberSlot{Class: m.class, Idx: m.idx, State: m.state, Done: m.done}
		if m.vals != nil {
			snap, err := layouts[m.class].Snapshot(m.vals)
			if err != nil {
				return nil, memberErr(i, err)
			}
			slots[i].Obs = &snap
		}
	}
	return slots, nil
}

// CheckpointFile writes a checkpoint through durable.WriteFile, so a
// crash mid-write leaves either the old checkpoint or the new one —
// never a torn one.
//
//scrublint:allow unusedexport README's fleet snippet; ROADMAP item 3's crash-safety battery
func (e *Engine) CheckpointFile(path string) error {
	return durable.WriteFile(durable.OS, path, func(f durable.File) error { return e.Checkpoint(f) })
}

// Resume rebuilds an engine from a checkpoint, verifying magic, length
// and CRC before decoding. The resumed engine continues exactly where
// the original parked: same member states, same slice boundary, same
// future.
func Resume(r io.Reader) (*Engine, error) {
	body, err := durable.ReadFrame(r, checkpointMagic, nil, math.MaxUint32)
	if err != nil {
		return nil, fmt.Errorf("fleet: checkpoint: %w", err)
	}
	var ck checkpoint
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("fleet: decode checkpoint: %w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("fleet: checkpoint version %d (want %d)", ck.Version, checkpointVersion)
	}
	e, err := New(ck.Cfg, ck.Classes)
	if err != nil {
		return nil, err
	}
	if len(ck.Slots) != len(e.slots) {
		return nil, fmt.Errorf("fleet: checkpoint has %d slots for %d members", len(ck.Slots), len(e.slots))
	}
	var layouts []*obs.Layout
	if e.cfg.Instrument {
		if layouts, err = e.layouts(); err != nil {
			return nil, err
		}
	}
	for i, s := range ck.Slots {
		m := &e.slots[i]
		if s.Class != m.class || s.Idx != m.idx {
			return nil, fmt.Errorf("fleet: checkpoint slot %d is member %d of class %d, want member %d of class %d",
				i, s.Idx, s.Class, m.idx, m.class)
		}
		m.state, m.done = s.State, s.Done
		if s.Obs == nil {
			continue
		}
		if layouts == nil {
			return nil, memberErr(i, fmt.Errorf("obs snapshot in an uninstrumented checkpoint"))
		}
		if m.vals, err = layouts[m.class].Values(*s.Obs); err != nil {
			return nil, memberErr(i, err)
		}
	}
	e.now = ck.Now
	return e, nil
}

// ResumeFile is Resume over a file.
func ResumeFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Resume(f)
}
