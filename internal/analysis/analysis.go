// Package analysis is the simulator's static-analysis layer: a small,
// dependency-free framework in the spirit of golang.org/x/tools/go/analysis
// plus nine project-specific analyzers (simtime, seededrand, poolsafe,
// hotpath, obsguard, snapshotdrift, gobsafe, detorder, errsink) that
// machine-check the determinism, pool-safety, hot-path and
// snapshot-integrity invariants the simulation results depend on.
//
// The framework is self-contained on purpose: the repository builds with
// the standard library only, so instead of x/tools the loader shells out
// to `go list -export` and feeds the resulting export data to the
// standard gc importer (see load.go). Analyzers receive a Pass with
// parsed files and full type information, report Diagnostics — each
// optionally carrying machine-applicable SuggestedFixes (see fix.go and
// `scrublint -fix`) — and honor line-based suppression directives:
//
//	//scrublint:allow <analyzer>[,<analyzer>...] [reason]
//
// A directive suppresses the named analyzers on its own source line and
// on the line immediately below it, so it works both as a trailing
// comment on the offending statement and as a whole-line comment above
// it. Suppressions are for the few legitimate host-timing sites
// (benchmark calibration, RSS sampling); real findings get fixed.
//
// Two further directives feed the snapshot-integrity analyzers:
//
//	//scrublint:transient <reason>  — on a field beside a component's
//	    state st (or of a paired live struct), declares the field
//	    intentionally outside the state; snapshotdrift requires the reason.
//	//scrublint:snapshot <LiveType> — on a snapshot struct or capture
//	    function, pairs it with a live struct that keeps no st field
//	    (builder-pattern checkpoints, tuple clocks).
//
// Analyzers that need a whole-program view (gobsafe walks the type graph
// reachable from every gob checkpoint root and must see gob.Register
// calls in other packages) implement RunProgram instead of Run and
// receive every loaded package at once.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// TextEdit is one span replacement in a suggested fix. Offsets are byte
// offsets into the named file, resolved at report time so applying a fix
// needs no FileSet.
type TextEdit struct {
	Filename   string
	Start, End int // byte offsets, Start <= End; Start == End inserts
	NewText    string
}

// SuggestedFix is a machine-applicable remedy for a diagnostic. Edits
// must not overlap each other; `scrublint -fix` applies them and gofmts
// the result, `-diff` prints them.
type SuggestedFix struct {
	Message string
	Edits   []TextEdit
}

// Diagnostic is one finding: a position, the analyzer that produced it,
// a human-readable message and any machine-applicable fixes.
type Diagnostic struct {
	Pos            token.Position
	Analyzer       string
	Message        string
	SuggestedFixes []SuggestedFix
}

// String formats the diagnostic the way compilers do:
// file:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one static check. Run inspects the Pass and reports
// findings through Pass.Reportf. Cross-package analyzers set RunProgram
// instead and receive every loaded package in one call.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //scrublint:allow directives.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the analyzer over one package. Exactly one of Run and
	// RunProgram must be set.
	Run func(*Pass) error
	// RunProgram executes the analyzer once over all loaded packages.
	RunProgram func(*Program) error
}

// Program is the whole-program view handed to RunProgram analyzers: one
// Pass per loaded package, sharing a FileSet, so reports land in the
// right package's suppression scope.
type Program struct {
	Passes []*Pass
}

// PassFor returns the pass analyzing pkg, or nil when pkg is not one of
// the loaded target packages (a dep-only import).
func (pr *Program) PassFor(pkg *types.Package) *Pass {
	for _, p := range pr.Passes {
		if p.Pkg == pkg {
			return p
		}
	}
	return nil
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the parsed source files of the package under analysis
	// (comments included — directives and annotations live there).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// PkgPath is the import path analyzers scope on. For testdata
	// packages it is the caller-declared path, which lets analyzer tests
	// exercise scope rules without living at the real location.
	PkgPath string
	// Info holds the type-checker's results for Files.
	Info *types.Info

	diags *[]Diagnostic
	// allowed maps filename -> line -> analyzer names suppressed there.
	allowed map[string]map[int]map[string]bool
}

// Reportf records a diagnostic at pos unless an //scrublint:allow
// directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportfFix(pos, nil, format, args...)
}

// ReportfFix is Reportf carrying a suggested fix (nil means none).
func (p *Pass) ReportfFix(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
	position := p.Fset.Position(pos)
	if lines, ok := p.allowed[position.Filename]; ok {
		if names, ok := lines[position.Line]; ok && names[p.Analyzer.Name] {
			return
		}
	}
	d := Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if fix != nil {
		d.SuggestedFixes = append(d.SuggestedFixes, *fix)
	}
	*p.diags = append(*p.diags, d)
}

// Edit builds a TextEdit replacing the [pos, end) source span with
// newText, resolving byte offsets through the pass's FileSet.
func (p *Pass) Edit(pos, end token.Pos, newText string) TextEdit {
	start := p.Fset.Position(pos)
	stop := p.Fset.Position(end)
	return TextEdit{Filename: start.Filename, Start: start.Offset, End: stop.Offset, NewText: newText}
}

// allowDirective is the suppression comment prefix.
const allowDirective = "//scrublint:allow"

// buildAllowed scans a file's comments for suppression directives and
// records, per line, which analyzers are silenced. Each directive covers
// its own line and the next one.
func buildAllowed(fset *token.FileSet, files []*ast.File) map[string]map[int]map[string]bool {
	allowed := make(map[string]map[int]map[string]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := allowed[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					allowed[pos.Filename] = lines
				}
				for _, name := range strings.Split(fields[0], ",") {
					name = strings.TrimSpace(name)
					if name == "" {
						continue
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						if lines[line] == nil {
							lines[line] = make(map[string]bool)
						}
						lines[line][name] = true
					}
				}
			}
		}
	}
	return allowed
}

// RunAnalyzers applies each analyzer to each package and returns every
// diagnostic, sorted by file, line and column. An analyzer error aborts
// the run: analyzers only fail on internal invariant violations, never
// on findings.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	allowed := make([]map[string]map[int]map[string]bool, len(pkgs))
	for i, pkg := range pkgs {
		allowed[i] = buildAllowed(pkg.Fset, pkg.Files)
	}
	newPass := func(a *Analyzer, i int) *Pass {
		return &Pass{
			Analyzer: a,
			Fset:     pkgs[i].Fset,
			Files:    pkgs[i].Files,
			Pkg:      pkgs[i].Types,
			PkgPath:  pkgs[i].PkgPath,
			Info:     pkgs[i].Info,
			diags:    &diags,
			allowed:  allowed[i],
		}
	}
	for _, a := range analyzers {
		if a.RunProgram != nil {
			pr := &Program{}
			for i := range pkgs {
				pr.Passes = append(pr.Passes, newPass(a, i))
			}
			if err := a.RunProgram(pr); err != nil {
				return nil, fmt.Errorf("%s: %w", a.Name, err)
			}
			continue
		}
		for i, pkg := range pkgs {
			if err := a.Run(newPass(a, i)); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full scrublint suite in a stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SimTimeAnalyzer,
		SeededRandAnalyzer,
		PoolSafeAnalyzer,
		HotPathAnalyzer,
		ObsGuardAnalyzer,
		SnapshotDriftAnalyzer,
		GobSafeAnalyzer,
		DetOrderAnalyzer,
		ErrSinkAnalyzer,
	}
}

// ByName resolves a comma-separated analyzer list ("all" or empty means
// the full suite) against the registry, rejecting unknown names.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" || names == "all" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return All(), nil
	}
	return out, nil
}

// --- shared type-resolution helpers used by the analyzers ---

// pkgFunc resolves a call to a package-level function and returns its
// package path and name ("", "" when the callee is not one). Methods,
// builtins, locals and conversions all return "".
func pkgFunc(info *types.Info, call *ast.CallExpr) (pkgPath, name string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := info.Uses[sel.Sel]
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", ""
	}
	if fn.Type().(*types.Signature).Recv() != nil {
		return "", ""
	}
	// Require the qualifier to be the package itself, not a value.
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", ""
	}
	if _, ok := info.Uses[id].(*types.PkgName); !ok {
		return "", ""
	}
	return fn.Pkg().Path(), fn.Name()
}

// methodOn resolves a call to a method and reports the defining type's
// package path and type name, plus the method name. Pointer receivers
// are unwrapped.
func methodOn(info *types.Info, call *ast.CallExpr) (pkgPath, typeName, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return "", "", ""
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), fn.Name()
}

// isNamedPtr reports whether t is *pkgPath.typeName.
func isNamedPtr(t types.Type, pkgPath, typeName string) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == pkgPath && named.Obj().Name() == typeName
}

// inScope reports whether pkgPath is one of paths.
func inScope(pkgPath string, paths []string) bool {
	for _, p := range paths {
		if pkgPath == p {
			return true
		}
	}
	return false
}
