package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"regexp"
)

// DeadCode reports non-test functions and methods that no binary and no
// embedder can reach. It is a whole-module analysis: the references between
// declarations in every loaded package's non-test files form a graph, and a
// declaration is live when it is reachable from a root:
//
//   - func main and every func init;
//   - package-level variable initializers (they run whenever the package is
//     linked);
//   - the root facade's exports — the exported functions of the package at
//     the module root, and the exported methods of every type it exports,
//     aliases of internal types included;
//   - methods that satisfy an interface type visible to the module (they
//     can be called through that interface without a static reference),
//     and Unwrap/Is/As methods, which the standard library finds through
//     unexported anonymous interfaces;
//   - declarations annotated // hetsynth:keep <reason>, for callers the
//     analyzer cannot see (oracles shared with other packages' tests, code
//     in separate modules).
//
// The analysis needs the whole module to be meaningful. Over a package
// subset with no main package it has no roots besides the facade, so it
// reports nothing rather than flagging every export.
var DeadCode = &Analyzer{
	Name:      "deadcode",
	Doc:       "non-test functions and methods must be reachable from a main package or the root facade's exports (or carry // hetsynth:keep <reason>)",
	RunModule: runDeadCode,
}

// keepRe matches the keep annotation; a bare marker without a reason does
// not count.
var keepRe = regexp.MustCompile(`//\s*hetsynth:keep\s+\S`)

// deadDecl is one function or method declaration of the module.
type deadDecl struct {
	pkg  *Package
	decl *ast.FuncDecl
	fn   *types.Func
	refs []string // keys of the functions its body references
}

func runDeadCode(pkgs []*Package) []Diagnostic {
	hasMain := false
	for _, p := range pkgs {
		if p.Types.Name() == "main" {
			hasMain = true
		}
	}
	if !hasMain {
		return nil
	}
	ifaces := visibleInterfaces(pkgs)
	decls := map[string]*deadDecl{}
	var order []string
	var roots []string
	for _, p := range pkgs {
		facade := isFacade(p)
		for _, f := range p.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok {
						continue
					}
					key := deadKey(fn)
					decls[key] = &deadDecl{pkg: p, decl: d, fn: fn, refs: funcRefs(p.Info, d)}
					order = append(order, key)
					if isDeadCodeRoot(p, d, fn, facade, ifaces) {
						roots = append(roots, key)
					}
				case *ast.GenDecl:
					// Package-level initializers run at link time; whatever
					// they reference is live.
					roots = append(roots, funcRefs(p.Info, d)...)
				}
			}
		}
		if facade {
			roots = append(roots, facadeTypeMethods(p)...)
		}
	}

	live := map[string]bool{}
	stack := roots
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[k] {
			continue
		}
		live[k] = true
		if d := decls[k]; d != nil {
			stack = append(stack, d.refs...)
		}
	}

	var out []Diagnostic
	for _, k := range order {
		if live[k] {
			continue
		}
		d := decls[k]
		kind := "function"
		if d.decl.Recv != nil {
			kind = "method"
		}
		out = append(out, Diagnostic{
			Pos:      d.pkg.Fset.Position(d.decl.Name.Pos()),
			Analyzer: "deadcode",
			Message:  kind + " " + d.fn.Name() + " is unreachable from every main package and the root facade's exports; delete it or justify it with // hetsynth:keep <reason>",
		})
	}
	return out
}

// deadKey identifies a function across separately type-checked packages:
// the source-checked declaration and an export-data import of it are
// distinct objects with the same full name.
func deadKey(fn *types.Func) string { return fn.Origin().FullName() }

// funcRefs collects the keys of every function or method n references —
// calls, method values and function values alike.
func funcRefs(info *types.Info, n ast.Node) []string {
	var refs []string
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				refs = append(refs, deadKey(fn))
			}
		}
		return true
	})
	return refs
}

// isDeadCodeRoot reports whether a declaration is live by itself: an entry
// point, a facade export, an interface implementation, or kept by
// annotation.
func isDeadCodeRoot(p *Package, d *ast.FuncDecl, fn *types.Func, facade bool, ifaces []*types.Interface) bool {
	if d.Recv == nil && (fn.Name() == "init" || (fn.Name() == "main" && p.Types.Name() == "main")) {
		return true
	}
	if d.Doc != nil {
		for _, c := range d.Doc.List {
			if keepRe.MatchString(c.Text) {
				return true
			}
		}
	}
	if facade && d.Recv == nil && fn.Exported() {
		return true
	}
	if d.Recv == nil {
		return false
	}
	// The standard library's unwrap protocols — errors.Is/As/Unwrap and
	// http.ResponseController — probe anonymous interfaces no package
	// exports, so those method names count as implementations outright.
	switch fn.Name() {
	case "Unwrap", "Is", "As":
		return true
	}
	return satisfiesInterface(fn, ifaces)
}

// isFacade reports whether p is the package at the module root.
func isFacade(p *Package) bool {
	root := findModuleRoot(p.Dir)
	return root != "" && filepath.Clean(p.Dir) == root
}

// facadeTypeMethods returns the keys of the exported methods of every type
// the facade exports, aliases of internal types included: an embedder holds
// those values and can call any exported method on them.
func facadeTypeMethods(p *Package) []string {
	var keys []string
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		ms := types.NewMethodSet(types.NewPointer(tn.Type()))
		for i := 0; i < ms.Len(); i++ {
			if fn, ok := ms.At(i).Obj().(*types.Func); ok && fn.Exported() {
				keys = append(keys, deadKey(fn))
			}
		}
	}
	return keys
}

// visibleInterfaces collects the non-empty interface types the module can
// see: those declared in its packages and in every package they import
// (fmt.Stringer, json.Marshaler, http.Handler, sort.Interface, ...), plus
// the predeclared error.
func visibleInterfaces(pkgs []*Package) []*types.Interface {
	seen := map[*types.Package]bool{}
	var out []*types.Interface
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
}

// satisfiesInterface reports whether method fn is part of an interface
// implementation: its receiver type (or a pointer to it) implements some
// visible interface that has a method of fn's name.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if has && (types.Implements(recv, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
