package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// copyPackage copies every non-test .go file of srcDir into a fresh temp
// directory, passing each file's contents through transform (nil means
// copy verbatim), and returns the new directory.
func copyPackage(t *testing.T, srcDir string, transform func(name string, data []byte) []byte) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if transform != nil {
			data = transform(name, data)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// runOn loads dir under asImportPath and runs one analyzer over it.
func runOn(t *testing.T, dir, asImportPath string, a *analysis.Analyzer) []analysis.Diagnostic {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, asImportPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

// dropLinesContaining removes every line containing needle.
func dropLinesContaining(data []byte, needle string) []byte {
	lines := strings.Split(string(data), "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.Contains(l, needle) {
			kept = append(kept, l)
		}
	}
	return []byte(strings.Join(kept, "\n"))
}

// TestDeletingSnapshotFieldFailsLint is the acceptance check for
// snapshotdrift: a field dropped from disk.State no longer compiles, so
// the drift left to catch is a live field added beside Disk.st. Two
// mutations of the disk package must each be flagged — a plain int64
// counter with no reason and a pointer to the simulator's pending-event
// timer, which, unlike a sim.Timer held by value, no snapshot re-arms —
// while the unmutated package stays clean, proving each finding comes
// from the drift, not the fixture.
func TestDeletingSnapshotFieldFailsLint(t *testing.T) {
	src := filepath.Join("..", "disk")
	clean := copyPackage(t, src, nil)
	if diags := runOn(t, clean, "repro/internal/disk", analysis.SnapshotDriftAnalyzer); len(diags) != 0 {
		t.Fatalf("unmutated disk package is not clean: %v", diags)
	}
	const anchor = "\tst State // live state"
	for field, mutate := range map[string]func(string) string{
		"parked": func(s string) string {
			return strings.Replace(s, anchor, "\tparked int64\n"+anchor, 1)
		},
		"retryEv": func(s string) string {
			s = strings.Replace(s, anchor, "\tretryEv *sim.Timer\n"+anchor, 1)
			return strings.Replace(s, `"repro/internal/obs"`, "\"repro/internal/obs\"\n\t\"repro/internal/sim\"", 1)
		},
	} {
		mutated := copyPackage(t, src, func(name string, data []byte) []byte {
			if name != "disk.go" {
				return data
			}
			return []byte(mutate(string(data)))
		})
		found := false
		for _, d := range runOn(t, mutated, "repro/internal/disk", analysis.SnapshotDriftAnalyzer) {
			found = found || strings.Contains(d.Message, "Disk."+field+" sits beside its state st")
		}
		if !found {
			t.Errorf("adding Disk.%s beside st did not fail lint", field)
		}
	}
}

// TestUnexportedGobFieldFailsLint is the acceptance check for gobsafe:
// add an unexported field to the gob-encoded fleet checkpoint struct and
// the analyzer must flag it as silently dropped. The unmutated package
// must stay clean.
func TestUnexportedGobFieldFailsLint(t *testing.T) {
	src := filepath.Join("..", "fleet")
	clean := copyPackage(t, src, nil)
	if diags := runOn(t, clean, "repro/internal/fleet", analysis.GobSafeAnalyzer); len(diags) != 0 {
		t.Fatalf("unmutated fleet package is not clean: %v", diags)
	}
	mutated := copyPackage(t, src, func(name string, data []byte) []byte {
		if name != "checkpoint.go" {
			return data
		}
		return []byte(strings.Replace(string(data),
			"type checkpoint struct {",
			"type checkpoint struct {\n\tsessionID int64", 1))
	})
	diags := runOn(t, mutated, "repro/internal/fleet", analysis.GobSafeAnalyzer)
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "checkpoint.sessionID") && strings.Contains(d.Message, "unexported") {
			found = true
		}
	}
	if !found {
		t.Fatalf("unexported gob field did not fail lint; got %v", diags)
	}
}

// TestUnusedExportFailsLint is the acceptance check for unusedexport:
// an exported func added to a copy of internal/stats, with only a test
// calling it, is flagged once the copy stands in for the real package
// in the whole module; the same func with one non-test caller is not,
// and nothing else in the module is flagged either way.
func TestUnusedExportFailsLint(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	module, err := analysis.Load("", "repro/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	const mutant = "\n// Midrange returns the mean of the extremes.\nfunc Midrange(xs []float64) float64 { return (xs[0] + xs[len(xs)-1]) / 2 }\n"
	lint := func(caller string) []analysis.Diagnostic {
		dir := copyPackage(t, filepath.Join("..", "stats"), func(name string, data []byte) []byte {
			if name == "descriptive.go" {
				data = append(data, mutant...)
			}
			return data
		})
		for name, src := range map[string]string{
			"midrange_test.go": "package stats\n\nimport \"testing\"\n\nfunc TestMidrange(t *testing.T) { _ = Midrange([]float64{1}) }\n",
			"caller.go":        caller,
		} {
			if src == "" {
				continue
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		stats, err := analysis.LoadDir(dir, "repro/internal/stats")
		if err != nil {
			t.Fatal(err)
		}
		pkgs := make([]*analysis.Package, 0, len(module))
		for _, p := range module {
			if p.PkgPath == "repro/internal/stats" {
				p = stats
			}
			pkgs = append(pkgs, p)
		}
		diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{analysis.UnusedExportAnalyzer})
		if err != nil {
			t.Fatal(err)
		}
		return diags
	}
	diags := lint("")
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "exported func Midrange has no non-test use") {
		t.Fatalf("test-only Midrange: got %v, want one finding on Midrange", diags)
	}
	if diags := lint("package stats\n\nfunc midrangeOf(xs []float64) float64 { return Midrange(xs) }\n\nvar _ = midrangeOf\n"); len(diags) != 0 {
		t.Fatalf("Midrange with a non-test caller: got %v, want none", diags)
	}
}
