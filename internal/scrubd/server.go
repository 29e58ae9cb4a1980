package scrubd

import (
	"errors"
	"io"
	"net/http"
	"sync"

	"repro/internal/obs"
)

// ServerConfig parameterizes the HTTP surface.
type ServerConfig struct {
	// MaxBodyBytes bounds a feed request body; larger bodies are a typed
	// 413. Default 8 MiB.
	MaxBodyBytes int64
	// CheckpointPath, when set, enables POST /v1/checkpoint: the engine
	// state is written there atomically. When empty the endpoint answers
	// 501.
	CheckpointPath string
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// Server is the engine's HTTP+JSON surface:
//
//	POST /v1/feed        batched feed records
//	GET  /v1/decide      scrub decision for one device
//	POST /v1/sync        204 at once: a feed is applied before it answers
//	POST /v1/checkpoint  write a checkpoint file
//	GET  /metrics        obs export (prom/json/csv)
//	GET  /healthz        liveness
//
// The decision path reuses pooled scratch buffers so the work this
// package adds per query — parse, decide, encode — allocates nothing;
// what remains is net/http's own per-request cost.
type Server struct {
	eng *Engine
	cfg ServerConfig
	mux *http.ServeMux

	// Operational gauges live in a server-level registry, set at scrape
	// time, so the engine's own snapshot stays a pure function of the
	// applied feed (see Engine.ObsSnapshot).
	regMu    sync.Mutex
	reg      *obs.Registry
	gDevices *obs.Gauge

	bufs sync.Pool // *[]byte: response bodies and feed bodies
	recs sync.Pool // *[]Record: decoded feed batches
}

// NewServer wires a server around an engine.
func NewServer(eng *Engine, cfg ServerConfig) *Server {
	s := &Server{eng: eng, cfg: cfg.withDefaults(), mux: http.NewServeMux(), reg: obs.New()}
	s.gDevices = s.reg.Gauge("scrubd.server.devices")
	s.bufs.New = func() any { b := make([]byte, 0, 4096); return &b }
	s.recs.New = func() any { r := make([]Record, 0, 256); return &r }
	s.mux.HandleFunc("/v1/feed", s.handleFeed)
	s.mux.HandleFunc("/v1/decide", s.handleDecide)
	s.mux.HandleFunc("/v1/sync", s.handleSync)
	s.mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	s.mux.Handle("/metrics", obs.Handler(s.scrape))
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// scrape merges the engine's deterministic snapshot with the server's
// operational gauges. A failure of either step is returned, never
// served as an empty or partial snapshot.
func (s *Server) scrape() (obs.Snapshot, error) {
	eng, err := s.eng.ObsSnapshot()
	if err != nil {
		return obs.Snapshot{}, err
	}
	s.regMu.Lock()
	s.gDevices.Set(s.eng.Devices())
	op := s.reg.Snapshot()
	s.regMu.Unlock()
	return obs.MergeSnapshots(eng, op)
}

// jsonContentType is every JSON response's Content-Type value. Header.Set
// would allocate a fresh one-element slice per response; the header map
// holds this shared one instead, which nothing writes through.
var jsonContentType = []string{"application/json; charset=utf-8"}

// writeJSON sends buf with the API content type.
func writeJSON(w http.ResponseWriter, status int, buf []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(buf)
}

// writeAPIError sends a typed error response.
func (s *Server) writeAPIError(w http.ResponseWriter, e *APIError) {
	bp := s.bufs.Get().(*[]byte)
	buf := AppendError((*bp)[:0], e)
	writeJSON(w, e.Status, buf)
	*bp = buf[:0]
	s.bufs.Put(bp)
}

// methodNotAllowed answers 405 with the allowed methods.
func (s *Server) methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	s.writeAPIError(w, errMethod)
}

var errMethod = &APIError{405, "method_not_allowed"}

// readBody reads the request body into a pooled buffer, enforcing
// MaxBodyBytes. The returned put func recycles the buffer.
func (s *Server) readBody(r *http.Request) ([]byte, func(), *APIError) {
	if r.ContentLength > s.cfg.MaxBodyBytes {
		return nil, nil, errBodyTooLong
	}
	bp := s.bufs.Get().(*[]byte)
	buf := (*bp)[:0]
	lim := io.LimitReader(r.Body, s.cfg.MaxBodyBytes+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := lim.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			*bp = buf[:0]
			s.bufs.Put(bp)
			return nil, nil, errTruncated
		}
	}
	if int64(len(buf)) > s.cfg.MaxBodyBytes {
		*bp = buf[:0]
		s.bufs.Put(bp)
		return nil, nil, errBodyTooLong
	}
	put := func() {
		*bp = buf[:0]
		s.bufs.Put(bp)
	}
	return buf, put, nil
}

// The static instances feedStatus hands out, so the feed path does not
// allocate error values.
var (
	feedErrTooManyDevs = &APIError{http.StatusInsufficientStorage, "too_many_devices"}
	feedErrClosed      = &APIError{http.StatusServiceUnavailable, "closed"}
	feedErrBadRecord   = &APIError{http.StatusBadRequest, "bad_record"}
	feedErrInternal    = &APIError{http.StatusInternalServerError, "internal"}
)

// feedStatus maps an engine ingestion error onto a typed response.
func feedStatus(err error) *APIError {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrTooManyDevices):
		return feedErrTooManyDevs
	case errors.Is(err, ErrClosed):
		return feedErrClosed
	case errors.Is(err, errRecordInvalid):
		return feedErrBadRecord
	default:
		return feedErrInternal
	}
}

func (s *Server) handleFeed(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, "POST")
		return
	}
	body, put, apiErr := s.readBody(r)
	if apiErr != nil {
		s.writeAPIError(w, apiErr)
		return
	}
	defer put()
	rp := s.recs.Get().(*[]Record)
	recs, err := DecodeFeed(body, (*rp)[:0])
	if err != nil {
		*rp = recs[:0]
		s.recs.Put(rp)
		var ae *APIError
		if !errors.As(err, &ae) {
			ae = errMalformed
		}
		s.writeAPIError(w, ae)
		return
	}
	accepted, ingErr := s.eng.IngestBatch(recs)
	*rp = recs[:0]
	s.recs.Put(rp)

	status := http.StatusOK
	ae := feedStatus(ingErr)
	if ae != nil {
		status = ae.Status
	}
	bp := s.bufs.Get().(*[]byte)
	buf := AppendAccepted((*bp)[:0], accepted, ae)
	writeJSON(w, status, buf)
	*bp = buf[:0]
	s.bufs.Put(bp)
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.methodNotAllowed(w, "GET, HEAD")
		return
	}
	dev, nowUs, err := ParseDecideQuery(r.URL.RawQuery)
	if err != nil {
		var ae *APIError
		if !errors.As(err, &ae) {
			ae = errMalformed
		}
		s.writeAPIError(w, ae)
		return
	}
	var d Decision
	if err := s.eng.DecideString(dev, nowUs, &d); err != nil {
		if errors.Is(err, ErrUnknownDevice) {
			s.writeAPIError(w, errUnknownDev)
			return
		}
		s.writeAPIError(w, feedErrInternal)
		return
	}
	bp := s.bufs.Get().(*[]byte)
	buf := AppendDecision((*bp)[:0], &d)
	writeJSON(w, http.StatusOK, buf)
	*bp = buf[:0]
	s.bufs.Put(bp)
}

var errUnknownDev = &APIError{404, "unknown_device"}

// handleSync answers 204 at once: every feed is applied before its own
// response, so there is nothing to wait for. The route stays for
// clients that still call it.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, "POST")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.methodNotAllowed(w, "POST")
		return
	}
	if s.cfg.CheckpointPath == "" {
		s.writeAPIError(w, errCkptDisabled)
		return
	}
	n, err := s.eng.CheckpointFile(s.cfg.CheckpointPath)
	if err != nil {
		s.writeAPIError(w, errCkptFailed)
		return
	}
	bp := s.bufs.Get().(*[]byte)
	buf := appendCheckpointed((*bp)[:0], n)
	writeJSON(w, http.StatusOK, buf)
	*bp = buf[:0]
	s.bufs.Put(bp)
}

var (
	errCkptDisabled = &APIError{http.StatusNotImplemented, "checkpoint_disabled"}
	errCkptFailed   = &APIError{http.StatusInternalServerError, "checkpoint_failed"}
)

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		s.methodNotAllowed(w, "GET, HEAD")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	io.WriteString(w, "ok\n") //scrublint:allow errsink best-effort health body; http.ResponseWriter has no durability contract
}
