package obs

import "net/http"

// contentTypes maps export formats onto their HTTP content types. The
// Prometheus one is the text exposition format version scrapers expect.
var contentTypes = map[string]string{
	"prom": "text/plain; version=0.0.4; charset=utf-8",
	"json": "application/json; charset=utf-8",
	"csv":  "text/csv; charset=utf-8",
}

// Handler serves metric snapshots over HTTP in the Prometheus text
// exposition format (the default) or, via ?format=json / ?format=csv,
// any other export format. snap is called once per request; it is the
// caller's job to make that call safe against concurrent writers (e.g.
// snapshotting per-shard registries under their locks and merging).
// When snap fails the handler answers 500 with the error, rather than
// serving an empty or partial snapshot.
func Handler(snap func() (Snapshot, error)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		format := r.URL.Query().Get("format")
		if format == "" {
			format = "prom"
		}
		ct, ok := contentTypes[format]
		if !ok {
			http.Error(w, "unknown format "+format, http.StatusBadRequest)
			return
		}
		s, err := snap()
		if err != nil {
			http.Error(w, "metrics snapshot: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ct)
		if r.Method == http.MethodHead {
			return
		}
		// Snapshot exports are deterministic and small; render errors
		// here can only be transport errors, which the client sees
		// directly.
		_ = s.WriteTo(w, format)
	})
}
