package scrubd

import "repro/internal/durable"

// SetCheckpointFS swaps the file system CheckpointFile writes through,
// so tests can stall or fail its steps.
func SetCheckpointFS(e *Engine, fsys durable.FS) { e.fs = fsys }
