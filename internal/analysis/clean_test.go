package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestRepoRunsClean is the acceptance gate behind `scrublint ./...`: the
// full suite over every package in the module must report nothing. Real
// findings get fixed, not added to an ignore list, so any diagnostic
// here is a regression in the tree (or an analyzer false positive —
// equally a bug).
func TestRepoRunsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	pkgs, err := analysis.Load("", "repro/...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; pattern repro/... should cover the module", len(pkgs))
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestSuiteComposition pins the analyzer set: CI and the docs both
// promise exactly these ten checks.
func TestSuiteComposition(t *testing.T) {
	var names []string
	for _, a := range analysis.All() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v incompletely wired", a)
		}
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("analyzer %s must set exactly one of Run and RunProgram", a.Name)
		}
		names = append(names, a.Name)
	}
	got := strings.Join(names, " ")
	want := "simtime seededrand poolsafe hotpath obsguard snapshotdrift gobsafe detorder errsink unusedexport"
	if got != want {
		t.Fatalf("suite = %q, want %q", got, want)
	}
}

// TestByName pins the registry-resolution rules the -analyzers flag
// relies on.
func TestByName(t *testing.T) {
	for _, sel := range []string{"", "all"} {
		as, err := analysis.ByName(sel)
		if err != nil || len(as) != len(analysis.All()) {
			t.Errorf("ByName(%q) = %d analyzers, err %v; want full suite", sel, len(as), err)
		}
	}
	as, err := analysis.ByName("simtime, errsink")
	if err != nil || len(as) != 2 || as[0].Name != "simtime" || as[1].Name != "errsink" {
		t.Errorf("ByName subset = %v, err %v", as, err)
	}
	if _, err := analysis.ByName("simtime,bogus"); err == nil {
		t.Error("ByName accepted an unknown analyzer name")
	}
}
