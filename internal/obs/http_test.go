package obs

import (
	"bytes"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerFormats(t *testing.T) {
	h := Handler(func() (Snapshot, error) { return goldenRegistry().Snapshot(), nil })
	cases := []struct {
		url, wantCT string
	}{
		{"/metrics", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics?format=prom", "text/plain; version=0.0.4; charset=utf-8"},
		{"/metrics?format=json", "application/json; charset=utf-8"},
		{"/metrics?format=csv", "text/csv; charset=utf-8"},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", c.url, nil))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d", c.url, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != c.wantCT {
			t.Fatalf("%s: content type %q, want %q", c.url, ct, c.wantCT)
		}
		if rec.Body.Len() == 0 {
			t.Fatalf("%s: empty body", c.url)
		}
	}

	// The prom body must match the snapshot's own export byte for byte.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var want bytes.Buffer
	if err := goldenRegistry().Snapshot().WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if rec.Body.String() != want.String() {
		t.Fatalf("handler body differs from WritePrometheus output")
	}
}

func TestHandlerErrors(t *testing.T) {
	h := Handler(func() (Snapshot, error) { return Snapshot{}, nil })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics?format=xml", nil))
	if rec.Code != 400 {
		t.Fatalf("unknown format: status %d, want 400", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/metrics", nil))
	if rec.Code != 405 {
		t.Fatalf("POST: status %d, want 405", rec.Code)
	}
	if allow := rec.Header().Get("Allow"); allow != "GET, HEAD" {
		t.Fatalf("POST: Allow %q", allow)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("HEAD", "/metrics", nil))
	if rec.Code != 200 || rec.Body.Len() != 0 {
		t.Fatalf("HEAD: status %d body %d bytes, want 200 and empty", rec.Code, rec.Body.Len())
	}
}

// TestHandlerSnapshotError requires a failed snapshot to surface as a
// 500 naming the failure, for GET and HEAD alike, and never as a 200
// with an empty or partial export.
func TestHandlerSnapshotError(t *testing.T) {
	h := Handler(func() (Snapshot, error) {
		return goldenRegistry().Snapshot(), errors.New("merge: kind mismatch")
	})
	for _, method := range []string{"GET", "HEAD"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, "/metrics?format=json", nil))
		if rec.Code != 500 {
			t.Fatalf("%s: status %d, want 500", method, rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
			t.Fatalf("%s: failed scrape served as %q", method, ct)
		}
		if method == "GET" && !strings.Contains(rec.Body.String(), "merge: kind mismatch") {
			t.Fatalf("GET: body %q does not name the failure", rec.Body.String())
		}
	}
}
