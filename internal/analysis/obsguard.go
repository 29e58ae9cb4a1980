package analysis

import "go/ast"

// obsPath is the import path of the observability package.
const obsPath = "repro/internal/obs"

// registryLookups are the name-keyed lookup methods on *obs.Registry.
// Each hashes the metric name into the registry's maps — fine at
// Instrument time, pure overhead when repeated per iteration or per
// event.
var registryLookups = map[string]bool{
	"Counter":          true,
	"Gauge":            true,
	"Histogram":        true,
	"HistogramBuckets": true,
	"Trace":            true,
}

// ObsGuardAnalyzer enforces the instrumentation fast-path discipline in
// sim-clock (hot-path) packages: obs.Registry lookups are hoisted to
// Instrument/construction time and cached in struct fields behind an
// instrumented-flag branch — never called inside a for/range body, and
// never called at all inside a //scrub:hotpath function. The cached
// instruments themselves (Counter.Inc, Histogram.Observe, ...) are
// nil-safe single-branch no-ops and stay legal everywhere.
var ObsGuardAnalyzer = &Analyzer{
	Name: "obsguard",
	Doc: "forbid obs.Registry lookups inside loop bodies or hot-path functions " +
		"in sim-clock packages; hoist them to Instrument time behind the instrumented flag",
	Run: runObsGuard,
}

func runObsGuard(pass *Pass) error {
	if !inScope(pass.PkgPath, simClockPackages) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hot := isHotPath(fd.Doc)
			checkObsScope(pass, fd.Body, hot, false)
		}
	}
	return nil
}

// checkObsScope walks a statement tree tracking whether execution is
// inside a loop body. hot marks the enclosing function as annotated
// //scrub:hotpath (lookups are then banned outright).
func checkObsScope(pass *Pass, root ast.Node, hot, inLoop bool) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			if n.Init != nil {
				checkObsScope(pass, n.Init, hot, inLoop)
			}
			if n.Cond != nil {
				checkObsScope(pass, n.Cond, hot, true)
			}
			if n.Post != nil {
				checkObsScope(pass, n.Post, hot, true)
			}
			checkObsScope(pass, n.Body, hot, true)
			return false
		case *ast.RangeStmt:
			checkObsScope(pass, n.X, hot, inLoop)
			checkObsScope(pass, n.Body, hot, true)
			return false
		case *ast.FuncLit:
			// A literal defined here runs later; loop context does not
			// carry into its body, but the hot-path ban is irrelevant too
			// (hotpath separately forbids literals in annotated functions).
			checkObsScope(pass, n.Body, false, false)
			return false
		case *ast.CallExpr:
			pkg, typ, method := methodOn(pass.Info, n)
			if pkg == obsPath && typ == "Registry" && registryLookups[method] {
				switch {
				case hot:
					pass.Reportf(n.Pos(), "obs.Registry.%s inside a hot-path function; cache the instrument in a struct field at Instrument time", method)
				case inLoop:
					pass.Reportf(n.Pos(), "obs.Registry.%s inside a loop body; hoist the lookup out of the loop", method)
				}
			}
		}
		return true
	})
}
