package scrubd

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/arima"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Checkpoint layout: the gob-encoded engine in one durable frame behind
// this magic.
const checkpointMagic = "SCRBDSV1"

// checkpointVersion gates decode compatibility.
const checkpointVersion = 1

// deviceCkpt is one device's serialized state.
//
//scrublint:snapshot device
type deviceCkpt struct {
	Name     string
	LastAtUs int64
	Gaps     int64
	AR       arima.OnlineARState
	Idle     stats.OnlineIdleState
}

// checkpoint is the serialized engine.
type checkpoint struct {
	Version int
	Cfg     Config
	Devices []deviceCkpt // sorted by name
	Obs     obs.Snapshot // merged across shards
}

// Checkpoint serializes the engine's device table and metrics,
// returning the bytes written. Every batch whose IngestBatch call has
// returned is part of it.
func (e *Engine) Checkpoint(w io.Writer) (int64, error) {
	ck := checkpoint{Version: checkpointVersion, Cfg: e.cfg}
	for _, s := range e.shards {
		s.mu.Lock()
		for _, d := range s.devices {
			ck.Devices = append(ck.Devices, deviceCkpt{
				Name:     d.name,
				LastAtUs: d.lastAtUs,
				Gaps:     d.gaps,
				AR:       d.ar.State(),
				Idle:     d.idle.State(),
			})
		}
		s.mu.Unlock()
	}
	// Name order makes equal states equal bytes regardless of shard
	// count or map iteration order.
	sort.Slice(ck.Devices, func(i, j int) bool { return ck.Devices[i].Name < ck.Devices[j].Name })
	snap, err := e.ObsSnapshot()
	if err != nil {
		return 0, fmt.Errorf("scrubd: checkpoint metrics: %w", err)
	}
	ck.Obs = snap

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		return 0, fmt.Errorf("scrubd: encode checkpoint: %w", err)
	}
	return durable.WriteFrame(w, checkpointMagic, buf.Bytes())
}

// CheckpointFile writes a checkpoint through durable.WriteFile, so a
// crash mid-write leaves either the old checkpoint or the new one —
// never a torn one. Concurrent calls are serialised, snapshot and
// write together, so the file on disk is always the latest snapshot.
func (e *Engine) CheckpointFile(path string) (int64, error) {
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	var n int64
	err := durable.WriteFile(e.fs, path, func(f durable.File) (err error) {
		n, err = e.Checkpoint(f)
		return err
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Restore rebuilds an engine from a checkpoint, verifying magic,
// length and CRC before decoding anything. The restored engine answers
// the same decisions and exports the same metrics snapshot as the
// original did at checkpoint time, and ingests like it from then on.
func Restore(r io.Reader) (*Engine, error) {
	body, err := durable.ReadFrame(r, checkpointMagic, nil, math.MaxUint32)
	if err != nil {
		return nil, fmt.Errorf("scrubd: checkpoint: %w", err)
	}
	var ck checkpoint
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("scrubd: decode checkpoint: %w", err)
	}
	if ck.Version != checkpointVersion {
		return nil, fmt.Errorf("scrubd: checkpoint version %d (want %d)", ck.Version, checkpointVersion)
	}
	e := NewEngine(ck.Cfg)
	for i := range ck.Devices {
		dc := &ck.Devices[i]
		if !validDeviceNameString(dc.Name) {
			return nil, fmt.Errorf("scrubd: checkpoint device %d: invalid name", i)
		}
		if dc.LastAtUs < 0 || dc.Gaps < 0 {
			return nil, fmt.Errorf("scrubd: checkpoint device %q: negative state", dc.Name)
		}
		ar, err := arima.RestoreOnlineAR(dc.AR)
		if err != nil {
			return nil, fmt.Errorf("scrubd: checkpoint device %q: %w", dc.Name, err)
		}
		idle, ok := stats.RestoreOnlineIdle(dc.Idle)
		if !ok {
			return nil, fmt.Errorf("scrubd: checkpoint device %q: corrupt idle histogram", dc.Name)
		}
		s := e.shards[shardIndexString(dc.Name, len(e.shards))]
		if _, dup := s.devices[dc.Name]; dup {
			return nil, fmt.Errorf("scrubd: checkpoint device %q: duplicate", dc.Name)
		}
		s.devices[dc.Name] = &device{
			name:     dc.Name,
			lastAtUs: dc.LastAtUs,
			gaps:     dc.Gaps,
			ar:       ar,
			idle:     idle,
		}
		e.devices.Add(1)
	}
	// The merged metrics land in shard 0's registry: instrument pointers
	// resolved at construction stay valid (Counter returns the existing
	// instrument), and ObsSnapshot merges shards, so the restored
	// engine's snapshot equals the checkpointed one byte for byte.
	if err := e.shards[0].reg.MergeSnapshot(ck.Obs); err != nil {
		return nil, fmt.Errorf("scrubd: restore metrics: %w", err)
	}
	return e, nil
}

// RestoreFile is Restore over a file.
func RestoreFile(path string) (*Engine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Restore(f)
}
