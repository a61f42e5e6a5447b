// Package lint implements hetsynthlint, a suite of static analyzers that
// machine-check the repository's concurrency, resource and API conventions.
//
// The lexical generation (PR 3): context propagation into solver calls
// (ctxpropagate), mutex discipline on fields annotated "guarded by mu"
// (guardedby), goroutine lifecycle tie-down (goroutinelife), documentation
// contracts on exported solver APIs (apidoc), and discarded error returns
// (retval).
//
// The dataflow generation: sync.Pool ownership (poolsafe), cache pin
// pairing (pinpair), arena view containment (arenaescape), and all-or-
// nothing field atomicity (atomicfield) run an intraprocedural dataflow or
// whole-package type analysis over the same go/ast + go/types
// representation (see flow.go). The tenth analyzer, escapebudget, is a
// compiler-output gate: it holds every // hetsynth:hotpath function to the
// heap-escape budget committed in testdata/escapes.golden.
//
// The Analyzer/Pass shape deliberately mirrors golang.org/x/tools/go/analysis
// so the suite could migrate onto the upstream driver later; the module
// itself stays stdlib-only, so the driver (load.go) feeds analyzers from
// `go list -export` build-cache export data instead of go/packages.
//
// Findings are suppressed with a justification comment on the flagged line
// or the line above:
//
//	//hetsynth:ignore <analyzer> <reason>
//
// goroutinelife additionally accepts the dedicated detachment annotation
//
//	// detached: <why this goroutine outlives structured supervision>
//
// and poolsafe accepts the dedicated retention annotation
//
//	// hetsynth:pool-escape <why this pooled value legitimately outlives the function>
//
// All forms require a non-empty reason; a bare marker does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a single type-checked package
// through its Pass and reports findings via Pass.Report. RunModule instead
// sees every loaded package at once (deadcode); Run drives it after the
// per-package loop. With neither set the analyzer is a whole-module gate
// (escapebudget) that the driver executes on its own.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func([]*Package) []Diagnostic
}

// A Pass hands one type-checked package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the finding as file:line:col: message [analyzer].
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// All returns the full suite in deterministic order: the five lexical
// analyzers, the four dataflow analyzers, the whole-module deadcode
// analysis, and the escape-budget gate.
func All() []*Analyzer {
	return []*Analyzer{
		CtxPropagate, GuardedBy, GoroutineLife, APIDoc, RetVal,
		PoolSafe, PinPair, ArenaEscape, AtomicField,
		DeadCode, EscapeBudgetAnalyzer,
	}
}

// Select resolves a comma-separated analyzer name list against the full
// suite; an empty list selects everything.
func Select(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunPackage runs the analyzers over one loaded package and returns the
// findings that survive suppression filtering, in position order.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	sup := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		if a.Run == nil {
			continue // whole-module gates run in the driver, not per package
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		pass.report = func(d Diagnostic) {
			if !sup.suppressed(d) {
				out = append(out, d)
			}
		}
		a.Run(pass)
	}
	sortDiagnostics(out)
	return out
}

// RunModule runs the whole-module analyzers over the loaded packages and
// returns the findings that survive suppression filtering, in position
// order.
func RunModule(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	sup := suppressions{}
	for _, pkg := range pkgs {
		for file, lines := range collectSuppressions(pkg.Fset, pkg.Files) {
			sup[file] = lines
		}
	}
	var out []Diagnostic
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		for _, d := range a.RunModule(pkgs) {
			if !sup.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	sortDiagnostics(out)
	return out
}

// sortDiagnostics orders findings by position, then analyzer name.
func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Run loads the packages matched by patterns (resolved relative to dir) and
// runs the analyzers over each, returning all findings in position order.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, err
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		out = append(out, RunPackage(pkg, analyzers)...)
	}
	return append(out, RunModule(pkgs, analyzers)...), nil
}

// ---- suppression comments ----

var (
	ignoreRe     = regexp.MustCompile(`//hetsynth:ignore\s+([a-z]+)\s+\S`)
	detachedRe   = regexp.MustCompile(`//\s*detached:\s*\S`)
	poolEscapeRe = regexp.MustCompile(`//\s*hetsynth:pool-escape\s+\S`)
)

// suppressions maps file → line → analyzer names suppressed on that line.
// The pseudo-names "detached" and "pool-escape" stand for the goroutinelife
// detachment marker and the poolsafe retention marker.
type suppressions map[string]map[int]map[string]bool

func collectSuppressions(fset *token.FileSet, files []*ast.File) suppressions {
	sup := suppressions{}
	add := func(pos token.Position, name string) {
		byLine := sup[pos.Filename]
		if byLine == nil {
			byLine = map[int]map[string]bool{}
			sup[pos.Filename] = byLine
		}
		if byLine[pos.Line] == nil {
			byLine[pos.Line] = map[string]bool{}
		}
		byLine[pos.Line][name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			// A marker suppresses from the comment group's last line, so a
			// justification wrapped over several comment lines still covers
			// the code line that follows the group.
			end := fset.Position(cg.End())
			for _, c := range cg.List {
				if m := ignoreRe.FindStringSubmatch(c.Text); m != nil {
					add(fset.Position(c.Pos()), m[1])
					add(end, m[1])
				}
				if detachedRe.MatchString(c.Text) {
					add(fset.Position(c.Pos()), "detached")
					add(end, "detached")
				}
				if poolEscapeRe.MatchString(c.Text) {
					add(fset.Position(c.Pos()), "pool-escape")
					add(end, "pool-escape")
				}
			}
		}
	}
	return sup
}

// suppressed reports whether d is covered by a justification comment on its
// own line or the line immediately above.
func (s suppressions) suppressed(d Diagnostic) bool {
	byLine := s[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	names := d.Analyzer
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		if marks := byLine[line]; marks != nil {
			if marks[names] {
				return true
			}
			if d.Analyzer == GoroutineLife.Name && marks["detached"] {
				return true
			}
			if d.Analyzer == PoolSafe.Name && marks["pool-escape"] {
				return true
			}
		}
	}
	return false
}

// ---- shared AST / type helpers ----

// baseObject resolves the identifier or selector chain e to the object of
// its final component: `wg` → the var wg, `p.wg` → the field var wg. It
// returns nil for anything more exotic (calls, indexing, literals).
func baseObject(info *types.Info, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := info.Uses[e]; o != nil {
			return o
		}
		return info.Defs[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isCtxType reports whether t is context.Context.
func isCtxType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// hasCtxParam reports whether the function signature declares a
// context.Context parameter.
func hasCtxParam(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isCtxType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// calleeFunc resolves a call expression to the function or method object it
// statically invokes, or nil for builtins, conversions, and func values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
