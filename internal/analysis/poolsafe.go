package analysis

import (
	"go/ast"
	"go/types"
)

// PoolSafeAnalyzer flags pooled *blockdev.Request values that escape
// their lifecycle. Pooled requests (obtained from Queue.GetRequest) are
// recycled by the queue as soon as the request's completion callbacks
// have run, so any reference that survives that point — a store into a
// struct field, slice, map or global, or a capture by a closure that may
// run later — dereferences recycled (and reset-poisoned) memory.
//
// Two object populations are tracked:
//
//   - variables assigned from Queue.GetRequest(): between GetRequest and
//     the ownership-transferring Submit call, the producer may only set
//     fields on the request and pass it to calls;
//   - parameters of completion-shaped functions (exactly one
//     *blockdev.Request parameter, no results — the OnComplete /
//     SubscribeSubmit / SubscribeComplete shape): the callback may read
//     and pass the request along but never retain it.
//
// The analyzer is syntactic-plus-types rather than SSA-based (the
// repository builds stdlib-only), so it tracks direct aliases within a
// function; laundering a pointer through interfaces or container round
// trips is out of reach and remains the job of the pool-poisoning
// runtime checks (blockdev.Request.reset, TestPooledRequestPoisoned).
//
// The simulator's own pooled events need no analyzer: Schedule, At and
// After return nothing and the event type is unexported, so there is
// nothing to escape. Package blockdev itself — the pool implementation, whose free
// list legitimately stores requests — is exempt.
var PoolSafeAnalyzer = &Analyzer{
	Name: "poolsafe",
	Doc: "flag pooled *blockdev.Request values escaping their lifecycle " +
		"(stored to fields/slices/globals or captured by closures past the recycle point)",
	Run: runPoolSafe,
}

// blockdevPath is the import path of the pool implementation.
const blockdevPath = "repro/internal/blockdev"

func runPoolSafe(pass *Pass) error {
	if pass.PkgPath == blockdevPath {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkPoolBody(pass, fn.Body, completionParams(pass, fn.Type))
				}
			case *ast.FuncLit:
				checkPoolBody(pass, fn.Body, completionParams(pass, fn.Type))
			}
			return true
		})
	}
	return nil
}

// completionParams returns the tracked objects for a completion-shaped
// function: exactly one parameter of type *blockdev.Request and no
// results. Other signatures (scheduler hooks taking (r, now), helpers
// returning requests) own different lifecycle windows and are not
// callback-shaped.
func completionParams(pass *Pass, ft *ast.FuncType) map[types.Object]bool {
	if ft.Results != nil && len(ft.Results.List) > 0 {
		return nil
	}
	if ft.Params == nil || len(ft.Params.List) != 1 {
		return nil
	}
	field := ft.Params.List[0]
	if len(field.Names) != 1 {
		return nil
	}
	obj := pass.Info.Defs[field.Names[0]]
	if obj == nil || !isNamedPtr(obj.Type(), blockdevPath, "Request") {
		return nil
	}
	return map[types.Object]bool{obj: true}
}

// isGetRequestCall reports whether e is a call to
// (*blockdev.Queue).GetRequest.
func isGetRequestCall(pass *Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	pkg, typ, method := methodOn(pass.Info, call)
	return pkg == blockdevPath && typ == "Queue" && method == "GetRequest"
}

// checkPoolBody walks one function body tracking pooled request
// variables and reporting escapes. seed carries objects pooled on entry
// (completion-callback parameters); GetRequest results join the set as
// they are assigned. Nested function literals are handled here (capture
// check against the enclosing set) and independently by runPoolSafe for
// their own parameters, so the walk stops at literals.
func checkPoolBody(pass *Pass, body *ast.BlockStmt, seed map[types.Object]bool) {
	tracked := make(map[types.Object]bool, len(seed))
	for o := range seed {
		tracked[o] = true
	}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure capturing a pooled request may outlive the recycle
			// point (it is typically scheduled or registered); any use of a
			// tracked object inside is an escape.
			ast.Inspect(n.Body, func(inner ast.Node) bool {
				id, ok := inner.(*ast.Ident)
				if !ok {
					return true
				}
				if obj := pass.Info.Uses[id]; obj != nil && tracked[obj] {
					pass.Reportf(id.Pos(), "pooled request %s captured by closure; the queue recycles it after completion, before the closure may run", id.Name)
				}
				return true
			})
			return false // literal's own params handled by runPoolSafe
		case *ast.AssignStmt:
			checkPoolAssign(pass, n, tracked)
			return true
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if obj := usedTracked(pass, res, tracked); obj != nil {
					pass.Reportf(res.Pos(), "pooled request %s returned; it is recycled after its completion callbacks run", obj.Name())
				}
			}
			return true
		case *ast.CallExpr:
			// append(xs, req) stores the pointer into a slice that outlives
			// the statement. Other calls transfer ownership legitimately
			// (Submit) or just read (stats helpers).
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					for _, arg := range n.Args[1:] {
						if obj := usedTracked(pass, arg, tracked); obj != nil {
							pass.Reportf(arg.Pos(), "pooled request %s appended to a slice; it escapes its recycle point", obj.Name())
						}
					}
				}
			}
			return true
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				v := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if obj := usedTracked(pass, v, tracked); obj != nil {
					pass.Reportf(v.Pos(), "pooled request %s stored in a composite literal; it escapes its recycle point", obj.Name())
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(body, walk)
}

// usedTracked returns the tracked object e denotes, or nil. Only bare
// identifiers count: field reads (req.LBA) and calls do not leak the
// pointer itself.
func usedTracked(pass *Pass, e ast.Expr, tracked map[types.Object]bool) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := pass.Info.Uses[id]; obj != nil && tracked[obj] {
		return obj
	}
	return nil
}

// checkPoolAssign handles one assignment: it both grows the tracked set
// (x := q.GetRequest(), aliases) and reports stores of tracked values
// into locations that outlive the request.
func checkPoolAssign(pass *Pass, as *ast.AssignStmt, tracked map[types.Object]bool) {
	// Parallel assignment pairs up; uneven forms (multi-value calls)
	// carry no request pointers worth tracking.
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		rhs := as.Rhs[i]
		fromPool := isGetRequestCall(pass, rhs)
		aliased := usedTracked(pass, rhs, tracked)
		if !fromPool && aliased == nil {
			continue
		}
		what := "pooled request from GetRequest"
		if aliased != nil {
			what = "pooled request " + aliased.Name()
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := pass.Info.Defs[l]
			if obj == nil {
				obj = pass.Info.Uses[l]
			}
			if obj == nil {
				continue
			}
			if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
				pass.Reportf(lhs.Pos(), "%s stored in package-level variable %s; it is recycled after completion", what, l.Name)
				continue
			}
			// Local variable: track the alias.
			tracked[obj] = true
		case *ast.SelectorExpr:
			// Writing a field *of the request itself* (req.Op = ...) is the
			// normal fill-in pattern; writing the request into some other
			// struct's field retains it past recycling.
			if usedTracked(pass, l.X, tracked) != nil {
				continue
			}
			pass.Reportf(lhs.Pos(), "%s stored in field %s; it is recycled after completion, poisoning the field", what, l.Sel.Name)
		case *ast.IndexExpr:
			pass.Reportf(lhs.Pos(), "%s stored in a slice or map element; it is recycled after completion", what)
		}
	}
}
