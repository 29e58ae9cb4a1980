package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// UnusedExportAnalyzer reports each exported package-level func, type,
// var or const, and each exported method, declared under internal/ that
// no non-test file of the loaded program uses. Exported code that only
// tests reach reproduces nothing yet still costs tests, docs and review;
// the remedy is to delete it, unexport it, or keep it with
//
//	//scrublint:allow unusedexport <reason>
//
// on the declaration, naming its caller or the work that will call it.
//
// Every package is type-checked on its own, so an imported object comes
// from export data and is not the object its own package defines. Uses
// are therefore matched by package path, receiver type and name, after
// Origin() maps an instantiation back to its generic declaration. A
// method also counts as used when an interface the loaded code mentions
// declares a method of that name (disk.Device, sort.Interface through
// sort.Sort's signature), or when the standard library looks for it by a
// dynamic type assertion (fmt's String, gob's GobEncode).
//
// The verdict needs every user in view: run on a subset of the module's
// packages, the analyzer reports names that the packages left out use.
var UnusedExportAnalyzer = &Analyzer{
	Name:       "unusedexport",
	Doc:        "exported funcs, types, vars, consts and methods under internal/ must have a non-test use; judges the whole module, so a run on a subset of packages over-reports",
	RunProgram: runUnusedExport,
}

// dynamicMethods are the methods the standard library finds by asserting
// an interface at run time (fmt, encoding/gob, encoding/json and the
// encoding marshalers), so no loaded code has to name the interface.
var dynamicMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"GobEncode": true, "GobDecode": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"MarshalText": true, "UnmarshalText": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

// useKey identifies a package-level object or method across separately
// type-checked packages. recv is empty for everything but methods.
type useKey struct {
	pkg, recv, name string
}

// keyOf returns obj's cross-package identity; ok is false for objects
// that cannot be a package-level declaration (struct fields, builtins).
func keyOf(obj types.Object) (useKey, bool) {
	if obj == nil || obj.Pkg() == nil {
		return useKey{}, false
	}
	k := useKey{pkg: obj.Pkg().Path(), name: obj.Name()}
	switch o := obj.(type) {
	case *types.Var:
		if o.IsField() {
			return useKey{}, false
		}
	case *types.Func:
		if recv := o.Origin().Type().(*types.Signature).Recv(); recv != nil {
			k.recv = recvTypeName(recv.Type())
		}
	}
	return k, true
}

// recvTypeName names a receiver's base type, pointers and type
// arguments stripped.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Name()
	}
	return ""
}

// ifaceMethods collects the method names of every interface reachable
// from a type through pointers, containers and signatures.
type ifaceMethods struct {
	names map[string]bool
	seen  map[types.Type]bool
}

func (m *ifaceMethods) add(t types.Type) {
	if t == nil || m.seen[t] {
		return
	}
	m.seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if it, ok := t.Underlying().(*types.Interface); ok {
			m.add(it)
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			m.names[t.Method(i).Name()] = true
		}
	case *types.Pointer:
		m.add(t.Elem())
	case *types.Slice:
		m.add(t.Elem())
	case *types.Array:
		m.add(t.Elem())
	case *types.Chan:
		m.add(t.Elem())
	case *types.Map:
		m.add(t.Key())
		m.add(t.Elem())
	case *types.Signature:
		for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tup.Len(); i++ {
				m.add(tup.At(i).Type())
			}
		}
	}
}

// inExportScope reports whether pkgPath is an internal/ package the
// analyzer judges (analyzer fixtures under testdata are not).
func inExportScope(pkgPath string) bool {
	return strings.Contains("/"+pkgPath+"/", "/internal/") && !strings.Contains(pkgPath, "/testdata/")
}

func runUnusedExport(prog *Program) error {
	used := make(map[useKey]bool)
	ifaces := &ifaceMethods{names: make(map[string]bool), seen: make(map[types.Type]bool)}
	for _, pass := range prog.Passes {
		for _, obj := range pass.Info.Uses {
			if k, ok := keyOf(obj); ok {
				used[k] = true
			}
			ifaces.add(obj.Type())
		}
		for _, obj := range pass.Info.Defs {
			if obj != nil {
				ifaces.add(obj.Type())
			}
		}
		for _, tv := range pass.Info.Types {
			ifaces.add(tv.Type)
		}
	}
	for _, pass := range prog.Passes {
		if !inExportScope(pass.PkgPath) {
			continue
		}
		check := func(id *ast.Ident, kind string) {
			if !id.IsExported() {
				return
			}
			k, ok := keyOf(pass.Info.Defs[id])
			if !ok || used[k] || (k.recv != "" && (ifaces.names[k.name] || dynamicMethods[k.name])) {
				return
			}
			name := k.name
			if k.recv != "" {
				name = k.recv + "." + name
			}
			pass.Reportf(id.Pos(), "exported %s %s has no non-test use in the module; delete it, unexport it, or allow it with a reason", kind, name)
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					kind := "func"
					if d.Recv != nil {
						kind = "method"
					}
					check(d.Name, kind)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							check(s.Name, "type")
						case *ast.ValueSpec:
							kind := "var"
							if d.Tok == token.CONST {
								kind = "const"
							}
							for _, id := range s.Names {
								check(id, kind)
							}
						}
					}
				}
			}
		}
	}
	return nil
}
