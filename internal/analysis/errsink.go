package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrSinkAnalyzer flags discarded errors on the durability-critical
// paths: the CRC frame codec and atomic temp-write-fsync-rename path in
// internal/durable, and the checkpoint and cache code in fleet, scrubd
// and trace that encodes through them.
// A dropped error on these paths turns a failed write into a checkpoint
// that looks committed — the restore then replays from a torn frame.
//
// Scope is deliberately narrow (the checkpoint and cache packages), and
// the check is shallow by design: an expression statement whose call
// returns an error (alone or as the last of a tuple) from a known
// write/encode/rename/close family is a finding. Deferred calls are
// exempt — `defer f.Close()` on an already-synced file and deferred
// best-effort cleanup are the idiom — as is anything the code assigns,
// even to underscore (an explicit, visible decision).
var ErrSinkAnalyzer = &Analyzer{
	Name: "errsink",
	Doc:  "checkpoint and cache code must not discard errors from encode/decode, write, sync, close or rename calls",
	Run:  runErrSink,
}

// errSinkPackages are the durability-critical packages.
var errSinkPackages = []string{
	"repro/internal/durable",
	"repro/internal/fleet",
	"repro/internal/scrubd",
	"repro/internal/trace",
}

func runErrSink(pass *Pass) error {
	if !inScope(pass.PkgPath, errSinkPackages) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			// Deferred calls (including deferred closures) are exempt:
			// best-effort cleanup on error paths is the idiom there.
			if _, ok := n.(*ast.DeferStmt); ok {
				return false
			}
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !returnsError(pass, call) {
				return true
			}
			if what := errSinkCallee(pass, call); what != "" {
				pass.Reportf(call.Pos(), "discarded error from %s on a checkpoint/cache durability path; a failed write must not look committed — check it or defer it", what)
			}
			return true
		})
	}
	return nil
}

// returnsError reports whether the call's sole or last result is error.
func returnsError(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if tuple, ok := t.(*types.Tuple); ok {
		if tuple.Len() == 0 {
			return false
		}
		t = tuple.At(tuple.Len() - 1).Type()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// errSinkCallee classifies the callee as a durability-critical call and
// returns a label for the diagnostic ("" if not one).
func errSinkCallee(pass *Pass, call *ast.CallExpr) string {
	if pkg, name := pkgFunc(pass.Info, call); pkg != "" {
		switch {
		case pkg == "os" && (name == "Rename" || name == "WriteFile" || name == "Remove" || name == "MkdirAll"):
			// Remove on the happy path (removing a stale checkpoint) still
			// matters; error-path cleanup removes are typically deferred or
			// assigned and thus exempt.
			return "os." + name
		case pkg == "io" && (name == "WriteString" || name == "Copy" || name == "CopyN"):
			return "io." + name
		case pkg == "encoding/binary" && (name == "Write" || name == "Read"):
			return "binary." + name
		case pkg == "repro/internal/durable":
			return "durable." + name
		}
		return ""
	}
	pkg, typ, method := methodOn(pass.Info, call)
	if pkg == "" {
		return ""
	}
	label := typ + "." + method
	switch {
	case pkg == "encoding/gob" && (method == "Encode" || method == "Decode"):
		return "gob." + label
	case pkg == "encoding/json" && (method == "Encode" || method == "Decode"):
		return "json." + label
	case pkg == "os" && typ == "File" &&
		(method == "Close" || method == "Sync" || method == "Truncate" || strings.HasPrefix(method, "Write")):
		return "os." + label
	case pkg == "bufio" && typ == "Writer" && (method == "Flush" || strings.HasPrefix(method, "Write")):
		return "bufio." + label
	case pkg == "io" && (method == "Close" || strings.HasPrefix(method, "Write")):
		return "io." + label
	}
	return ""
}
