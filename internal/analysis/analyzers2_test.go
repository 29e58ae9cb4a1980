package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// TestSnapshotDrift covers method pairing, directive pairing (frame
// structs and tuple clocks), the field-matching rules, the transient
// directive with and without a reason, and the no-restore exemption.
// The analyzer is not scope-gated, so any module-ish path serves.
func TestSnapshotDrift(t *testing.T) {
	analysistest.Run(t, td("snapshotdrift"), "repro/internal/snapdriftfix", analysis.SnapshotDriftAnalyzer)
}

// TestGobSafe covers the walk from Encode and Decode roots: unexported
// drops (top-level and nested), chan/func rejections, registered and
// unregistered interfaces, self-encoding opacity and the allow
// directive.
func TestGobSafe(t *testing.T) {
	analysistest.Run(t, td("gobsafe"), "repro/internal/gobsafefix", analysis.GobSafeAnalyzer)
}

// TestDetOrderMapSinks covers every sink family, sort-neutralization,
// commutative folds, keyed writes, loop-local slices and the directive.
func TestDetOrderMapSinks(t *testing.T) {
	analysistest.Run(t, td("detorder"), "repro/internal/fleet", analysis.DetOrderAnalyzer)
}

// TestDetOrderOutOfScope proves the scope rule: the same sinks under a
// host-side package path report nothing.
func TestDetOrderOutOfScope(t *testing.T) {
	analysistest.RunNoDiagnostics(t, td("detorder"), "repro/internal/benchcmp", analysis.DetOrderAnalyzer)
}

// TestDetOrderConcurrency covers go statements and channel selects in a
// sim-clock package, plus the annotated daemon boundary.
func TestDetOrderConcurrency(t *testing.T) {
	analysistest.Run(t, td("detorder_conc"), "repro/internal/scrub", analysis.DetOrderAnalyzer)
}

// TestDetOrderConcurrencyParExempt proves internal/par — the blessed
// home for fan-out — is outside the concurrency scope.
func TestDetOrderConcurrencyParExempt(t *testing.T) {
	analysistest.RunNoDiagnostics(t, td("detorder_conc"), "repro/internal/par", analysis.DetOrderAnalyzer)
}

// TestDetOrderRNG covers raw rand.NewSource in checkpointable state and
// the allowed draw-counting seam.
func TestDetOrderRNG(t *testing.T) {
	analysistest.Run(t, td("detorder_rng"), "repro/internal/disk", analysis.DetOrderAnalyzer)
}

// TestDetOrderRNGScopeSplit proves the RNG rule is scoped to
// checkpointable packages, not every sim-clock package: replay is
// sim-clock but keeps no checkpointable RNG state.
func TestDetOrderRNGScopeSplit(t *testing.T) {
	analysistest.RunNoDiagnostics(t, td("detorder_rng"), "repro/internal/replay", analysis.DetOrderAnalyzer)
}

// TestDetOrderFix applies the sorted-keys suggested fixes and checks
// the rewrites byte-match the committed goldens, type-check, and
// re-analyze clean.
func TestDetOrderFix(t *testing.T) {
	analysistest.RunWithFixes(t, td("detorder_fix"), "repro/internal/fleet", analysis.DetOrderAnalyzer, td("detorder_fix_golden"))
}

// TestErrSink covers discarded errors on every durability-critical
// callee family, the defer exemptions and explicit discards.
func TestErrSink(t *testing.T) {
	analysistest.Run(t, td("errsink"), "repro/internal/fleet", analysis.ErrSinkAnalyzer)
}

// TestErrSinkDurable keeps the one shared write path in scope, and
// flags callers that discard its errors.
func TestErrSinkDurable(t *testing.T) {
	analysistest.Run(t, td("errsink"), "repro/internal/durable", analysis.ErrSinkAnalyzer)
	analysistest.Run(t, td("errsink_durable"), "repro/internal/trace", analysis.ErrSinkAnalyzer)
}

// TestErrSinkOutOfScope proves the narrow scope: the same discards in a
// non-durability package are silent.
func TestErrSinkOutOfScope(t *testing.T) {
	analysistest.RunNoDiagnostics(t, td("errsink"), "repro/internal/core", analysis.ErrSinkAnalyzer)
}

// TestGenerics proves analyzers fire inside generic functions and
// methods of generic types (the loader records Instances, so
// instantiation type-checks).
func TestGenerics(t *testing.T) {
	analysistest.Run(t, td("generics"), "repro/internal/sim", analysis.SimTimeAnalyzer)
}

// TestBuildTags proves the testdata loader honors build constraints:
// the fixture's excluded files (a //go:build tag and a GOOS suffix)
// redeclare symbols, so loading them would fail the type check.
func TestBuildTags(t *testing.T) {
	analysistest.Run(t, td("buildtag"), "repro/internal/sim", analysis.SimTimeAnalyzer)
}
