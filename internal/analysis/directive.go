package analysis

import (
	"go/ast"
	"strings"
)

// Field- and decl-level directives the snapshot-integrity analyzers
// consume, beyond the shared //scrublint:allow suppression:
//
//	//scrublint:transient <reason>  — as a live-struct field's doc or
//	    line comment: the field is intentionally outside the state (wiring,
//	    configuration, derived, or recorded in its own form at capture).
//	    The reason is mandatory; snapshotdrift reports a bare directive.
//	//scrublint:snapshot <LiveType> [field=Capture ...] — pairs the
//	    annotated snapshot struct (or capture function) with a live struct
//	    checkpointed without an st field.
const (
	transientDirective = "//scrublint:transient"
	snapshotDirective  = "//scrublint:snapshot"
)

// docDirective extracts the directive's argument from a doc comment
// group ("" and false when the group carries no such directive).
func docDirective(doc *ast.CommentGroup, prefix string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if rest, ok := strings.CutPrefix(c.Text, prefix); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}
