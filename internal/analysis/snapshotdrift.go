package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// SnapshotDriftAnalyzer enforces the snapshot-completeness invariant
// behind every checkpoint/restore pair in the simulator. A parkable
// component keeps its live state in one field, st, whose type is the
// component's gob-encoded State: a field dropped from the State is a
// compile error, and a field added to it is captured by the copy that
// parks the component. What the compiler cannot see is a live field
// added beside st — it would be silently dropped at park, and the
// restored simulation would diverge from the uninterrupted one, which is
// the bug the 1-vs-N-shard determinism batteries exist to catch, found
// at compile time instead. So every field of a struct that has an st
// field must either be st, be a func (a prebuilt callback or hook), a
// sim.Timer (a pending event the component records and restores itself)
// or an internal/obs instrument (alone or in a slice or array), or carry
//
//	//scrublint:transient <reason>
//
// as its doc or line comment. Live types checkpointed another way are
// paired explicitly with //scrublint:snapshot <LiveType> [field=Name ...]
// on the snapshot struct (every struct field is a capture) or on a
// capture function (every named result is a capture): then each live
// field must match a capture by name, case-insensitively, or be renamed
// onto one in the directive, exempt or transient.
var SnapshotDriftAnalyzer = &Analyzer{
	Name: "snapshotdrift",
	Doc:  "fields beside a component's state st, and fields of //scrublint:snapshot-paired live types without a capture, must be funcs, sim.Timers, obs instruments or declared transient with a reason",
	Run:  runSnapshotDrift,
}

// simPath is the import path of the simulation kernel.
const simPath = "repro/internal/sim"

// stateField names the field that holds a component's live State.
const stateField = "st"

// companion is the capture side of a //scrublint:snapshot pairing.
type companion struct {
	name     string          // display name of the snapshot struct or capture function
	captures map[string]bool // lower-cased captured field names
}

func runSnapshotDrift(pass *Pass) error {
	companions := collectCompanions(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					checkLiveStruct(pass, ts.Name.Name, st, companions[ts.Name.Name])
				}
			}
		}
	}
	return nil
}

// checkLiveStruct audits one struct: a component holding st, or a live
// type paired by directive (comp non-nil). Any other struct is skipped.
func checkLiveStruct(pass *Pass, typeName string, st *ast.StructType, comp *companion) {
	hasState := false
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			hasState = hasState || n.Name == stateField
		}
	}
	if !hasState && comp == nil {
		return
	}
	for _, f := range st.Fields.List {
		for _, n := range f.Names {
			if (hasState && n.Name == stateField) || (comp != nil && comp.captures[strings.ToLower(n.Name)]) {
				continue
			}
			if exemptField(pass.Info.TypeOf(f.Type)) {
				continue
			}
			if reason, ok := transientReason(f); ok {
				if reason == "" {
					pass.Reportf(n.Pos(), "transient directive on %s.%s needs a reason (%s <why this field is safe to drop>)", typeName, n.Name, transientDirective)
				}
				continue
			}
			if comp != nil {
				pass.Reportf(n.Pos(), "live field %s.%s is not captured by %s; checkpoint restore will silently diverge — capture it or mark it %s <reason>", typeName, n.Name, comp.name, transientDirective)
			} else {
				pass.Reportf(n.Pos(), "field %s.%s sits beside its state %s; checkpoint restore will silently diverge — move it into the State or mark it %s <reason>", typeName, n.Name, stateField, transientDirective)
			}
		}
	}
}

// exemptField reports whether a field of type t needs no capture: funcs
// are rebuilt or re-attached, a sim.Timer is rebuilt at wiring and
// re-armed from the (at, seq) record its component's snapshot carries,
// and obs instruments are host-side.
func exemptField(t types.Type) bool {
	if n, ok := t.(*types.Named); ok && n.Obj().Name() == "Timer" &&
		n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == simPath {
		return true
	}
	for t != nil {
		switch u := t.(type) {
		case *types.Slice:
			t = u.Elem()
		case *types.Array:
			t = u.Elem()
		case *types.Pointer:
			n, ok := u.Elem().(*types.Named)
			return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == obsPath
		default:
			_, ok := t.Underlying().(*types.Signature)
			return ok
		}
	}
	return false
}

// transientReason returns the reason of a transient directive in the
// field's doc or line comment.
func transientReason(f *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if reason, ok := docDirective(cg, transientDirective); ok {
			return reason, true
		}
	}
	return "", false
}

// collectCompanions maps each live type named by a //scrublint:snapshot
// directive to its captures: the annotated struct's fields or the
// annotated function's named results, plus the directive's
// field=Capture renames onto them.
func collectCompanions(pass *Pass) map[string]*companion {
	out := make(map[string]*companion)
	add := func(doc *ast.CommentGroup, name string, fields *ast.FieldList) {
		arg, ok := docDirective(doc, snapshotDirective)
		args := strings.Fields(arg)
		if !ok || len(args) == 0 || fields == nil {
			return
		}
		c := out[args[0]]
		if c == nil {
			c = &companion{name: name, captures: make(map[string]bool)}
			out[args[0]] = c
		}
		for _, f := range fields.List {
			for _, n := range f.Names {
				c.captures[strings.ToLower(n.Name)] = true
			}
		}
		for _, r := range args[1:] {
			if live, capture, ok := strings.Cut(r, "="); ok && c.captures[strings.ToLower(capture)] {
				c.captures[strings.ToLower(live)] = true
			}
		}
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Doc, d.Name.Name+"()", d.Type.Results)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil && len(d.Specs) == 1 {
						doc = d.Doc
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						add(doc, ts.Name.Name, st.Fields)
					}
				}
			}
		}
	}
	return out
}
