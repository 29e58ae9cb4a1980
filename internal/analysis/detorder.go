package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetOrderAnalyzer hunts nondeterministic iteration and scheduling in
// the packages whose output must be byte-identical across reruns:
//
//   - `range` over a map where the iteration order can reach an
//     order-sensitive consumer — an append to an outer slice that is
//     never sorted afterwards, a stream/encoder write, an RNG draw, an
//     event schedule, or a channel send. Go randomizes map order per
//     iteration, so any of these makes two identical runs diverge. The
//     diagnostic carries a suggested fix that rewrites the loop to
//     iterate over sorted keys (`scrublint -fix` applies it).
//     Commutative folds (integer sums, min/max, keyed map writes) are
//     deliberately not sinks, and an append that is later sorted is
//     neutralized.
//   - `go` statements and `select` statements in sim-clock packages.
//     Real concurrency there races the virtual clock; the one blessed
//     home for goroutines is internal/par, whose sharded fan-out keeps
//     determinism by merging in shard order.
//   - math/rand.NewSource in checkpointable packages. A raw Source
//     cannot report how many draws it has made, so it cannot be
//     captured in a snapshot; checkpointable state uses fault.PosSource
//     (a draw-counting source) or the idx-replay cursor technique.
var DetOrderAnalyzer = &Analyzer{
	Name: "detorder",
	Doc:  "map iteration must not reach order-sensitive sinks, sim-clock packages must not spawn goroutines or select on channels, and checkpointable state must use position-aware RNG sources",
	Run:  runDetOrder,
}

// detOrderPackages is where map-iteration order matters: every
// sim-clock package plus the deterministic engines and exporters around
// them.
var detOrderPackages = append([]string{
	"repro/internal/fault",
	"repro/internal/fleet",
	"repro/internal/obs",
	"repro/internal/trace",
	"repro/internal/raidsim",
	"repro/internal/stats",
	"repro/internal/arima",
	"repro/internal/mlet",
	"repro/internal/experiments",
}, simClockPackages...)

// checkpointRNGPackages is where RNG state must be snapshot-capturable:
// everything that participates in checkpoint/restore.
var checkpointRNGPackages = []string{
	"repro/internal/sim",
	"repro/internal/disk",
	"repro/internal/fault",
	"repro/internal/scrub",
	"repro/internal/blockdev",
	"repro/internal/iosched",
	"repro/internal/schedpolicy",
	"repro/internal/core",
	"repro/internal/raidsim",
	"repro/internal/fleet",
	"repro/internal/scrubd",
	"repro/internal/stats",
	"repro/internal/arima",
}

func runDetOrder(pass *Pass) error {
	mapScope := inScope(pass.PkgPath, detOrderPackages)
	concScope := inScope(pass.PkgPath, simClockPackages)
	rngScope := inScope(pass.PkgPath, checkpointRNGPackages)
	if !mapScope && !concScope && !rngScope {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.RangeStmt:
				if mapScope {
					checkMapRange(pass, file, stmt)
				}
			case *ast.GoStmt:
				if concScope {
					pass.Reportf(stmt.Pos(), "goroutine in sim-clock package %s races the virtual clock; move concurrency behind internal/par or annotate the daemon boundary", pass.PkgPath)
				}
			case *ast.SelectStmt:
				if concScope {
					pass.Reportf(stmt.Pos(), "channel select in sim-clock package %s depends on runtime scheduling; move concurrency behind internal/par or annotate the daemon boundary", pass.PkgPath)
				}
			case *ast.CallExpr:
				if rngScope {
					if pkg, name := pkgFunc(pass.Info, stmt); (pkg == "math/rand" || pkg == "math/rand/v2") && name == "NewSource" {
						pass.Reportf(stmt.Pos(), "raw rand.NewSource in checkpointable package %s cannot be captured by a snapshot; use a draw-counting source (fault.PosSource) or the idx-replay cursor pattern", pass.PkgPath)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkMapRange inspects one range statement over a map for
// order-sensitive sinks in its body.
func checkMapRange(pass *Pass, file *ast.File, rng *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return
	}
	mt, ok := tv.Type.Underlying().(*types.Map)
	if !ok {
		return
	}
	sink, appendTargets := findOrderSinks(pass, rng)
	if sink == "" {
		return
	}
	if len(appendTargets) > 0 && sink == sinkAppend {
		// Append sinks are neutralized by a later sort of the same slice.
		enc := enclosingFunc(file, rng)
		all := true
		for _, tgt := range appendTargets {
			if !sortedAfter(pass, enc, rng, tgt) {
				all = false
				break
			}
		}
		if all {
			return
		}
	}
	fix := sortedKeysFix(pass, file, rng, mt)
	pass.ReportfFix(rng.Pos(), fix,
		"map iteration order reaches an order-sensitive sink (%s); iterate over sorted keys instead", sink)
}

// Sink kind labels for diagnostics; sinkAppend additionally enables
// sort-neutralization.
const sinkAppend = "append to outer slice"

// findOrderSinks walks the range body and reports the first
// order-sensitive sink plus every outer-slice append target (for
// neutralization checks).
func findOrderSinks(pass *Pass, rng *ast.RangeStmt) (sink string, appendTargets []ast.Expr) {
	found := func(s string) {
		if sink == "" {
			sink = s
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			found("channel send")
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				if obj, ok := pass.Info.Uses[id]; ok {
					if _, isBuiltin := obj.(*types.Builtin); isBuiltin && outerTarget(pass, rng, x.Args[0]) {
						found(sinkAppend)
						appendTargets = append(appendTargets, x.Args[0])
					}
				}
				return true
			}
			if s := callSink(pass, x); s != "" {
				found(s)
			}
		}
		return true
	})
	return sink, appendTargets
}

// callSink classifies a call as an order-sensitive sink ("" if benign).
func callSink(pass *Pass, call *ast.CallExpr) string {
	if pkg, name := pkgFunc(pass.Info, call); pkg != "" {
		switch {
		case pkg == "fmt":
			return "fmt output"
		case pkg == "math/rand" || pkg == "math/rand/v2":
			return "RNG draw"
		case pkg == "io" && (name == "WriteString" || name == "Copy"):
			return "stream write"
		}
		return ""
	}
	pkg, typ, method := methodOn(pass.Info, call)
	if pkg == "" {
		return ""
	}
	switch {
	case pkg == "math/rand" || pkg == "math/rand/v2":
		return "RNG draw"
	case (pkg == "encoding/gob" || pkg == "encoding/json") && method == "Encode":
		return "encoder write"
	case pkg == "encoding/csv" && (method == "Write" || method == "WriteAll"):
		return "encoder write"
	case strings.HasPrefix(method, "Write") &&
		(pkg == "io" || pkg == "os" || pkg == "bufio" ||
			(pkg == "bytes" && typ == "Buffer") || (pkg == "strings" && typ == "Builder")):
		return "stream write"
	case strings.HasSuffix(pkg, "internal/sim") && typ == "Simulator" &&
		(strings.HasPrefix(method, "Schedule") || method == "At" || method == "After"),
		strings.HasSuffix(pkg, "internal/sim") && typ == "Timer" && method == "Arm":
		return "event schedule"
	case strings.HasSuffix(pkg, "internal/obs") && method == "Push":
		return "ordered observation push"
	}
	return ""
}

// outerTarget reports whether the append target's root variable is
// declared outside the range statement — appends to loop-local slices
// do not leak iteration order.
func outerTarget(pass *Pass, rng *ast.RangeStmt, target ast.Expr) bool {
	root := target
	for {
		switch x := root.(type) {
		case *ast.SelectorExpr:
			root = x.X
		case *ast.IndexExpr:
			root = x.X
		case *ast.ParenExpr:
			root = x.X
		default:
			id, ok := root.(*ast.Ident)
			if !ok {
				return false
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				obj = pass.Info.Defs[id]
			}
			if obj == nil {
				return false
			}
			return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
		}
	}
}

// enclosingFunc finds the function declaration or literal containing n.
func enclosingFunc(file *ast.File, n ast.Node) ast.Node {
	var enc ast.Node
	ast.Inspect(file, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		switch m.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			if m.Pos() <= n.Pos() && n.End() <= m.End() {
				enc = m
			}
		}
		return true
	})
	return enc
}

// sortedAfter reports whether the enclosing function sorts target after
// the range statement (sort.Strings/Ints/Float64s/Slice/SliceStable/
// Sort on the same expression), which neutralizes append-order leakage.
func sortedAfter(pass *Pass, enc ast.Node, rng *ast.RangeStmt, target ast.Expr) bool {
	if enc == nil {
		return false
	}
	want := types.ExprString(target)
	neutralized := false
	ast.Inspect(enc, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || len(call.Args) == 0 {
			return true
		}
		if pkg, _ := pkgFunc(pass.Info, call); pkg == "sort" || pkg == "slices" {
			if types.ExprString(call.Args[0]) == want {
				neutralized = true
			}
		}
		return true
	})
	return neutralized
}

// sortedKeysFix builds the sorted-keys rewrite for a map range when the
// statement has a simple enough shape: a `:=` range with an identifier
// key, an ordered key type renderable in this package, and a pure
// (identifier/selector) map expression. Returns nil when no safe fix
// exists — the diagnostic still fires.
func sortedKeysFix(pass *Pass, file *ast.File, rng *ast.RangeStmt, mt *types.Map) *SuggestedFix {
	if rng.Tok != token.DEFINE {
		return nil
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok || key.Name == "_" {
		return nil
	}
	if !pureExpr(rng.X) {
		return nil
	}
	kt := mt.Key()
	sortCall, ktName, ok := sortForKeyType(pass, kt)
	if !ok {
		return nil
	}
	mapExpr := types.ExprString(rng.X)
	keysName := freshName(pass, rng, "keys")

	var b strings.Builder
	fmt.Fprintf(&b, "%s := make([]%s, 0, len(%s))\n", keysName, ktName, mapExpr)
	fmt.Fprintf(&b, "for %s := range %s {\n", key.Name, mapExpr)
	fmt.Fprintf(&b, "%s = append(%s, %s)\n", keysName, keysName, key.Name)
	b.WriteString("}\n")
	b.WriteString(strings.ReplaceAll(sortCall, "$", keysName) + "\n")
	fmt.Fprintf(&b, "for _, %s := range %s {", key.Name, keysName)
	if val, ok := rng.Value.(*ast.Ident); ok && val.Name != "_" {
		fmt.Fprintf(&b, "\n%s := %s[%s]", val.Name, mapExpr, key.Name)
	}

	edits := []TextEdit{pass.Edit(rng.Pos(), rng.Body.Lbrace+1, b.String())}
	if imp := importSortEdit(pass, file); imp != nil {
		edits = append(edits, *imp)
	}
	return &SuggestedFix{
		Message: "iterate over sorted keys",
		Edits:   edits,
	}
}

// pureExpr reports whether e is safe to evaluate more than once: an
// identifier or a selector/paren chain over identifiers.
func pureExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return true
	case *ast.SelectorExpr:
		return pureExpr(x.X)
	case *ast.ParenExpr:
		return pureExpr(x.X)
	}
	return false
}

// sortForKeyType picks the sort invocation ("$" is the keys slice) and
// the rendered key type. Only basic ordered types and same-package named
// types over them are eligible — anything else would need an import we
// cannot safely name.
func sortForKeyType(pass *Pass, kt types.Type) (sortCall, typeName string, ok bool) {
	basic, isBasic := kt.Underlying().(*types.Basic)
	if !isBasic || basic.Info()&(types.IsInteger|types.IsFloat|types.IsString) == 0 {
		return "", "", false
	}
	if named, isNamed := kt.(*types.Named); isNamed {
		if named.Obj().Pkg() != pass.Pkg {
			return "", "", false
		}
		typeName = named.Obj().Name()
	} else {
		typeName = basic.Name()
	}
	if typeName == "string" && basic.Kind() == types.String {
		return "sort.Strings($)", typeName, true
	}
	return "sort.Slice($, func(i, j int) bool { return $[i] < $[j] })", typeName, true
}

// freshName returns base unless it is already bound at the range
// statement's scope, in which case a numeric suffix disambiguates.
func freshName(pass *Pass, rng *ast.RangeStmt, base string) string {
	scope := pass.Pkg.Scope().Innermost(rng.Pos())
	name := base
	for i := 2; ; i++ {
		if scope == nil {
			return name
		}
		if _, obj := scope.LookupParent(name, rng.Pos()); obj == nil {
			return name
		}
		name = fmt.Sprintf("%s%d", base, i)
	}
}

// importSortEdit returns an edit adding `"sort"` to the file's imports,
// or nil when sort is already imported. The fix's generated code always
// qualifies with `sort.`, so an aliased sort import defeats the fix —
// in that case no import edit is produced and the existing alias is not
// used (the repo does not alias sort).
func importSortEdit(pass *Pass, file *ast.File) *TextEdit {
	for _, imp := range file.Imports {
		if imp.Path.Value == `"sort"` {
			return nil
		}
	}
	// Prefer extending an existing parenthesized import block; fall back
	// to a standalone import declaration after the package clause.
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.IMPORT {
			continue
		}
		if gd.Lparen.IsValid() {
			e := pass.Edit(gd.Lparen+1, gd.Lparen+1, "\n\t\"sort\"")
			return &e
		}
		e := pass.Edit(gd.Pos(), gd.Pos(), "import \"sort\"\n")
		return &e
	}
	e := pass.Edit(file.Name.End(), file.Name.End(), "\n\nimport \"sort\"")
	return &e
}
