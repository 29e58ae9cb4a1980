package scrubd

import (
	"net/http"

	"repro/internal/durable"
)

// SetCheckpointFS swaps the file system CheckpointFile writes through,
// so tests can stall or fail its steps.
func SetCheckpointFS(e *Engine, fsys durable.FS) { e.fs = fsys }

// HandleDecide calls the GET /v1/decide handler directly, without the
// mux in front of it.
func HandleDecide(s *Server, w http.ResponseWriter, r *http.Request) { s.handleDecide(w, r) }
