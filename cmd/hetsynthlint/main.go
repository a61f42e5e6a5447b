// Command hetsynthlint runs the repository's custom static-analysis suite
// (internal/lint) over the packages matched by its arguments and exits
// non-zero when any analyzer reports a finding. It is the project-specific
// complement to `go vet` — the Makefile's lint target runs both — and proves
// the solver/server conventions: context propagation into solvers, "guarded
// by mu" mutex discipline, goroutine lifecycle tie-down, solver API
// documentation, undiscarded errors, sync.Pool ownership, cache pin pairing,
// arena view containment, all-or-nothing field atomicity, reachability of
// every non-test function (deadcode), and the hot-path heap-escape budget.
//
// Usage:
//
//	hetsynthlint [-only poolsafe,pinpair,...] [-list] [packages]
//	hetsynthlint -only escapebudget [-escapes-golden FILE] [packages]
//	hetsynthlint -update-escapes            # regenerate the escape baseline
//
// Findings print as file:line:col: message [analyzer]. Suppress a finding
// with a justification comment on the flagged line or the line above:
// //hetsynth:ignore <analyzer> <reason>, // detached: <reason> for
// goroutinelife, or // hetsynth:pool-escape <reason> for poolsafe; keep a
// function deadcode flags with // hetsynth:keep <reason> in its doc comment.
//
// The escapebudget analyzer is a whole-module gate rather than a per-package
// pass: it compiles the module with -gcflags=-m and compares the heap-escape
// count of every // hetsynth:hotpath function against the committed baseline
// (-escapes-golden, default internal/lint/testdata/escapes.golden, resolved
// against the module root). -update-escapes rewrites that baseline from the
// current compiler output.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hetsynth/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list available analyzers and exit")
	golden := flag.String("escapes-golden", "", "escape-budget baseline file (default: <module>/internal/lint/testdata/escapes.golden)")
	update := flag.Bool("update-escapes", false, "regenerate the escape-budget baseline and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	goldenPath := *golden
	if goldenPath == "" {
		root := lint.ModuleRoot(".")
		if root == "" {
			fmt.Fprintln(os.Stderr, "hetsynthlint: no go.mod found; pass -escapes-golden explicitly")
			os.Exit(2)
		}
		goldenPath = filepath.Join(root, "internal", "lint", "testdata", "escapes.golden")
	}

	if *update {
		if err := lint.WriteEscapeBaseline(".", goldenPath, patterns); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "hetsynthlint: wrote escape baseline to %s\n", goldenPath)
		return
	}

	analyzers, err := lint.Select(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var diags []lint.Diagnostic
	astAnalyzers := 0
	for _, a := range analyzers {
		if a.Run != nil || a.RunModule != nil {
			astAnalyzers++
		}
	}
	if astAnalyzers > 0 {
		diags, err = lint.Run(".", patterns, analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	for _, a := range analyzers {
		if a.Name != lint.EscapeBudgetAnalyzer.Name {
			continue
		}
		ediags, err := lint.EscapeBudget(".", goldenPath, patterns)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		diags = append(diags, ediags...)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "hetsynthlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
