// Command scrublint is the project's multichecker: it runs the ten
// determinism/pool-safety/hot-path/snapshot-integrity/unused-export analyzers from
// internal/analysis over the packages matching its arguments and exits
// nonzero on any finding.
//
// Usage:
//
//	go run ./cmd/scrublint [flags] [packages...]
//
// With no package arguments it checks ./.... Flags:
//
//	-analyzers names   comma-separated subset to run ("all" = full suite)
//	-list              list the analyzers and exit
//	-json              emit machine-readable diagnostics
//	-baseline file     suppress findings listed in the baseline file
//	-write-baseline    write the current findings to the -baseline file
//	-diff              print unified diffs of the suggested fixes
//	-fix               apply suggested fixes in place (gofmt'd)
//
// Exit status: 0 clean (or all findings fixed/suppressed), 1 findings,
// 2 operational error (load or type-check failure).
//
// Suppress a single finding with a trailing or preceding comment:
//
//	t := time.Now() //scrublint:allow simtime host-side calibration
//
// Fields intentionally outside a snapshot take a field-level directive
// with a mandatory reason:
//
//	instr Instr //scrublint:transient host-side instrumentation
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

// jsonDiagnostic is the -json output record.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	// SuggestedFixes carries the fix messages (not the edits — those are
	// byte offsets private to this checkout); presence tells tooling
	// `-fix` can resolve the finding.
	SuggestedFixes []string `json:"suggested_fixes,omitempty"`
	// Suppressed marks findings matched by the -baseline file. They are
	// reported for visibility but do not affect the exit status.
	Suppressed bool `json:"suppressed,omitempty"`
}

func main() {
	os.Exit(scrublint(os.Args[1:], os.Stdout, os.Stderr))
}

// scrublint is main with injectable streams and status, for testing.
func scrublint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scrublint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit diagnostics as JSON")
	list := fs.Bool("list", false, "list the analyzers and exit")
	names := fs.String("analyzers", "all", "comma-separated analyzers to run (\"all\" = full suite)")
	baselinePath := fs.String("baseline", "", "baseline file of tolerated findings")
	writeBaseline := fs.Bool("write-baseline", false, "write current findings to the -baseline file and exit")
	diff := fs.Bool("diff", false, "print unified diffs of suggested fixes")
	fix := fs.Bool("fix", false, "apply suggested fixes in place")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: scrublint [flags] [packages...]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(fs.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, "scrublint:", err)
		return 2
	}
	diags, err := run(fs.Args(), analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "scrublint:", err)
		return 2
	}

	if *writeBaseline {
		if *baselinePath == "" {
			fmt.Fprintln(stderr, "scrublint: -write-baseline needs -baseline <file>")
			return 2
		}
		if err := os.WriteFile(*baselinePath, analysis.FormatBaseline(diags), 0o644); err != nil {
			fmt.Fprintln(stderr, "scrublint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "scrublint: wrote %d suppression(s) to %s\n", len(diags), *baselinePath)
		return 0
	}

	var suppressed []analysis.Diagnostic
	if *baselinePath != "" {
		bl, err := analysis.ReadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "scrublint:", err)
			return 2
		}
		diags, suppressed = bl.Split(diags)
	}

	if *fix || *diff {
		results, err := analysis.ApplyFixes(diags)
		if err != nil {
			fmt.Fprintln(stderr, "scrublint:", err)
			return 2
		}
		fixed := make(map[string]bool)
		for _, r := range results {
			if *diff {
				fmt.Fprint(stdout, r.Diff())
			}
			if *fix {
				if err := os.WriteFile(r.Filename, r.Fixed, 0o644); err != nil {
					fmt.Fprintln(stderr, "scrublint:", err)
					return 2
				}
				fixed[r.Filename] = true
			}
		}
		if *fix {
			// Findings whose file was rewritten are resolved; the rest
			// (no suggested fix) still count.
			var remaining []analysis.Diagnostic
			for _, d := range diags {
				if len(d.SuggestedFixes) == 0 || !fixed[d.Pos.Filename] {
					remaining = append(remaining, d)
				}
			}
			fmt.Fprintf(stderr, "scrublint: fixed %d file(s), %d finding(s) remain\n", len(fixed), len(remaining))
			diags = remaining
		}
	}

	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags)+len(suppressed))
		emit := func(ds []analysis.Diagnostic, sup bool) {
			for _, d := range ds {
				jd := jsonDiagnostic{
					File:       d.Pos.Filename,
					Line:       d.Pos.Line,
					Col:        d.Pos.Column,
					Analyzer:   d.Analyzer,
					Message:    d.Message,
					Suppressed: sup,
				}
				for _, f := range d.SuggestedFixes {
					jd.SuggestedFixes = append(jd.SuggestedFixes, f.Message)
				}
				out = append(out, jd)
			}
		}
		emit(diags, false)
		emit(suppressed, true)
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "scrublint:", err)
			return 2
		}
	} else if !*diff && !*fix {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "scrublint: %d finding(s)", len(diags))
			if len(suppressed) > 0 {
				fmt.Fprintf(stderr, " (+%d baseline-suppressed)", len(suppressed))
			}
			fmt.Fprintln(stderr)
		}
		return 1
	}
	return 0
}

// run loads the packages and applies the selected analyzers.
func run(patterns []string, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	pkgs, err := analysis.Load("", patterns...)
	if err != nil {
		return nil, err
	}
	return analysis.RunAnalyzers(pkgs, analyzers)
}
