// Package analysistest runs one analyzer over a testdata package and
// checks its diagnostics against // want expectations, mirroring
// golang.org/x/tools/go/analysis/analysistest on top of the project's
// stdlib-only framework.
//
// Expectations are trailing comments on the line the diagnostic lands
// on:
//
//	t := time.Now() // want "wall-clock time.Now"
//
// Each quoted string is a regular expression matched against the
// diagnostic message; a line may carry several. Every expectation must
// be matched by a diagnostic and every diagnostic must match an
// expectation, so the clean and //scrublint:allow cases are asserted
// simply by carrying no want comment.
package analysistest

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// wantRE extracts the quoted expectations from a "// want" comment;
// both double- and backquoted strings are accepted (backquotes spare
// regexp metacharacters a second escaping).
var wantRE = regexp.MustCompile("// want ((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)\\s*)+)")

// quotedRE extracts each individual quoted string.
var quotedRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// expectation is one unmatched want entry.
type expectation struct {
	line int
	re   *regexp.Regexp
}

// Run loads dir as a package with import path asImportPath, applies the
// analyzer, and fails t on any mismatch between diagnostics and want
// comments.
//
//scrublint:allow unusedexport test helper by design: analyzer tests call it
func Run(t *testing.T, dir, asImportPath string, a *analysis.Analyzer) {
	t.Helper()
	pkg, diags := load(t, dir, asImportPath, a)
	checkWants(t, pkg, diags)
}

// checkWants matches diagnostics against the package's want comments.
func checkWants(t *testing.T, pkg *analysis.Package, diags []analysis.Diagnostic) {
	t.Helper()
	wants := collectWants(t, pkg)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		rest := wants[key][:0]
		for _, w := range wants[key] {
			if !matched && w.re.MatchString(d.Message) {
				matched = true
				continue
			}
			rest = append(rest, w)
		}
		wants[key] = rest
		if !matched {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", key, d.Analyzer, d.Message)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			t.Errorf("no diagnostic at %s matching %q", key, w.re)
		}
	}
}

// RunWithFixes is Run plus the autofix contract: the suggested fixes
// carried by the diagnostics are applied (in memory), the rewritten
// files must byte-match their goldens in goldenDir (same basenames),
// and the fixed package — golden bytes for rewritten files, originals
// for the rest — must type-check and re-analyze clean. That is the
// "compiling, lint-clean after -fix" acceptance check, run hermetically
// in a temp dir.
//
//scrublint:allow unusedexport test helper by design: analyzer tests call it
func RunWithFixes(t *testing.T, dir, asImportPath string, a *analysis.Analyzer, goldenDir string) {
	t.Helper()
	pkg, diags := load(t, dir, asImportPath, a)
	checkWants(t, pkg, diags)

	results, err := analysis.ApplyFixes(diags)
	if err != nil {
		t.Fatalf("applying fixes from %s: %v", dir, err)
	}
	if len(results) == 0 {
		t.Fatalf("no suggested fixes produced in %s", dir)
	}
	fixed := make(map[string][]byte)
	for _, r := range results {
		base := filepath.Base(r.Filename)
		golden := filepath.Join(goldenDir, base)
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("reading golden for %s: %v", base, err)
		}
		if !bytes.Equal(r.Fixed, want) {
			t.Errorf("fixed %s differs from golden %s:\n--- got ---\n%s\n--- want ---\n%s",
				base, golden, r.Fixed, want)
		}
		fixed[base] = r.Fixed
	}

	// Reassemble the fixed package and prove it type-checks and is clean.
	tmp := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		content, ok := fixed[name]
		if !ok {
			if content, err = os.ReadFile(filepath.Join(dir, name)); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(tmp, name), content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixedPkg, err := analysis.LoadDir(tmp, asImportPath)
	if err != nil {
		t.Fatalf("fixed package does not type-check: %v", err)
	}
	rediags, err := analysis.RunAnalyzers([]*analysis.Package{fixedPkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("re-analyzing fixed package: %v", err)
	}
	for _, d := range rediags {
		t.Errorf("fixed package still has a finding: %s", d)
	}
}

// RunNoDiagnostics loads dir under asImportPath and asserts the
// analyzer stays silent, ignoring want comments. It exists to re-load a
// diagnostic-bearing testdata package under an out-of-scope import path
// and prove the scope rule, not the pattern match, is what fires.
//
//scrublint:allow unusedexport test helper by design: analyzer tests call it
func RunNoDiagnostics(t *testing.T, dir, asImportPath string, a *analysis.Analyzer) {
	t.Helper()
	_, diags := load(t, dir, asImportPath, a)
	for _, d := range diags {
		t.Errorf("unexpected diagnostic out of scope (%s): %s", asImportPath, d)
	}
}

// load type-checks the testdata package and runs the analyzer.
func load(t *testing.T, dir, asImportPath string, a *analysis.Analyzer) (*analysis.Package, []analysis.Diagnostic) {
	t.Helper()
	pkg, err := analysis.LoadDir(dir, asImportPath)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzers([]*analysis.Package{pkg}, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, dir, err)
	}
	return pkg, diags
}

// collectWants scans the package's comments for expectations, keyed by
// file:line.
func collectWants(t *testing.T, pkg *analysis.Package) map[string][]expectation {
	t.Helper()
	wants := make(map[string][]expectation)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range quotedRE.FindAllString(m[1], -1) {
					pattern, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", key, q, err)
					}
					re, err := regexp.Compile(pattern)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", key, pattern, err)
					}
					wants[key] = append(wants[key], expectation{line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}
