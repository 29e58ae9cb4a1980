package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/disk"
	"repro/internal/durable"
	"repro/internal/fault"
)

// Checkpoint layout: the gob-encoded fleet in one durable frame behind
// this magic.
const checkpointMagic = "SCRBFLT1"

// checkpointVersion gates decode compatibility.
const checkpointVersion = 1

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
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(checkpoint{
		Version: checkpointVersion,
		Cfg:     e.cfg,
		Classes: e.classes,
		Now:     e.now,
		Slots:   e.slots,
	}); err != nil {
		return fmt.Errorf("fleet: encode checkpoint: %w", err)
	}
	_, err := durable.WriteFrame(w, checkpointMagic, buf.Bytes())
	return err
}

// CheckpointFile writes a checkpoint through durable.WriteFile, so a
// crash mid-write leaves either the old checkpoint or the new one —
// never a torn one.
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
	e.slots = ck.Slots
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
