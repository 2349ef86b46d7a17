package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Atomicmix reports a struct field or package-level variable reached by
// both sync/atomic operations and plain reads/writes anywhere in the
// module. Mixing the two is a data race the runtime race detector only
// catches on interleavings the test suite happens to execute; statically
// the mix is visible in every build. The atomic.Int64-style wrapper types
// are inert here — the type system already forbids plain access to them.
//
// Identities are type-level (`pkgpath.Type.field`, `pkgpath.var`), and a
// package's accesses are checked against those of every package it
// imports, so a package that plainly reads a counter another package
// manages with atomic.AddInt64 is a finding even though neither package
// alone shows the mix. Suppress a deliberate mix (e.g. a read under a lock
// that orders it) with `//lint:ignore atomicmix <reason>`; at the access
// itself the directive also holds for importing packages.
var Atomicmix = &Analyzer{
	Name: "atomicmix",
	Doc:  "fields and package vars must not mix sync/atomic access with plain reads/writes anywhere in the module",
	Run:  runAtomicmix,
}

// accessKind distinguishes the two sides of the mix.
type accessKind int8

const (
	accessAtomic accessKind = iota
	accessPlain
)

// atomicAccess is one recorded access to a trackable identity.
type atomicAccess struct {
	id    string
	pos   token.Pos
	kind  accessKind
	write bool
}

// atomicCensus is every analyzed package's accesses in position order,
// built once per IPA.
type atomicCensus struct {
	byPkg map[*Package][]atomicAccess
}

func (ipa *IPA) atomicCensus() *atomicCensus {
	if ipa.atoms == nil {
		ipa.atoms = buildAtomicCensus(ipa)
	}
	return ipa.atoms
}

func buildAtomicCensus(ipa *IPA) *atomicCensus {
	c := &atomicCensus{byPkg: make(map[*Package][]atomicAccess)}
	for _, pkg := range ipa.pkgs {
		w := &censusWalker{info: pkg.Info}
		for _, n := range ipa.Graph.NodesOf(pkg) {
			w.collectWrites(n.Body)
			w.walk(n.Body, false)
		}
		sort.Slice(w.out, func(i, j int) bool { return w.out[i].pos < w.out[j].pos })
		c.byPkg[pkg] = w.out
	}
	return c
}

type censusWalker struct {
	info   *types.Info
	out    []atomicAccess
	writes map[ast.Expr]bool // exprs in write position (assign LHS, ++/--)
	exempt map[ast.Expr]bool // &-targets of sync/atomic calls
}

func (w *censusWalker) collectWrites(body ast.Node) {
	w.writes = make(map[ast.Expr]bool)
	w.exempt = make(map[ast.Expr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				w.writes[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			w.writes[ast.Unparen(x.X)] = true
		case *ast.CallExpr:
			if fn := calleeFunc(w.info, x); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" && len(x.Args) > 0 {
				if u, ok := ast.Unparen(x.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
					target := ast.Unparen(u.X)
					w.exempt[target] = true
					if id := w.identityOf(target); id != "" {
						w.out = append(w.out, atomicAccess{
							id:    id,
							pos:   target.Pos(),
							kind:  accessAtomic,
							write: atomicFuncWrites(fn.Name()),
						})
					}
				}
			}
		}
		return true
	})
}

func atomicFuncWrites(name string) bool {
	for _, p := range []string{"Store", "Add", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// walk records plain accesses. Composite-literal bodies are skipped: the
// `T{n: 0}` construction idiom precedes any sharing, and flagging it would
// make every constructor a finding.
func (w *censusWalker) walk(n ast.Node, inComposite bool) {
	if n == nil {
		return
	}
	switch x := n.(type) {
	case *ast.CompositeLit:
		inComposite = true
	case *ast.SelectorExpr, *ast.Ident:
		e := x.(ast.Expr)
		if !inComposite && !w.exempt[e] {
			if id := w.identityOf(e); id != "" {
				w.out = append(w.out, atomicAccess{
					id:    id,
					pos:   e.Pos(),
					kind:  accessPlain,
					write: w.writes[e],
				})
			}
		}
		if sel, ok := e.(*ast.SelectorExpr); ok {
			w.walk(sel.X, inComposite)
			return
		}
		return
	}
	comp := inComposite
	ast.Inspect(n, func(sub ast.Node) bool {
		if sub == n {
			return true
		}
		w.walk(sub, comp)
		return false
	})
}

// identityOf maps an expression to a trackable identity: a named struct
// field or package-level variable whose type sync/atomic can operate on
// (sized integers, uintptr, unsafe.Pointer). Everything else — locals,
// wrapper-typed fields, plain ints — returns "".
func (w *censusWalker) identityOf(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		sel, ok := w.info.Selections[x]
		if ok && sel.Kind() == types.FieldVal {
			field, _ := sel.Obj().(*types.Var)
			if field == nil || !atomicCapable(field.Type()) {
				return ""
			}
			named := namedOf(sel.Recv())
			if named == nil || named.Obj().Pkg() == nil {
				return ""
			}
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + field.Name()
		}
		// Package-qualified var: pkg.V.
		if v, ok := w.info.Uses[x.Sel].(*types.Var); ok {
			return packageVarIdentity(v)
		}
	case *ast.Ident:
		if v, ok := w.info.Uses[x].(*types.Var); ok {
			return packageVarIdentity(v)
		}
	}
	return ""
}

func packageVarIdentity(v *types.Var) string {
	if v.IsField() || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() || !atomicCapable(v.Type()) {
		return ""
	}
	return v.Pkg().Path() + "." + v.Name()
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// atomicCapable reports whether sync/atomic has operations for the type:
// the sized integers, uintptr, and unsafe.Pointer. `int`, bools, and the
// atomic wrapper types are excluded — the former have no atomic ops, the
// latter cannot be accessed plainly at all.
func atomicCapable(t types.Type) bool {
	switch b, ok := t.Underlying().(*types.Basic); {
	case ok:
		switch b.Kind() {
		case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr, types.UnsafePointer:
			return true
		}
	}
	return false
}

func runAtomicmix(pass *Pass) {
	census := pass.IPA().atomicCensus()
	local := census.byPkg[pass.pkg]

	// Each local identity's two sides: local atomic accesses, then those of
	// the imported packages, minus accesses a //lint:ignore atomicmix
	// justifies where they happen.
	ids := map[string]bool{}
	atomicAt := map[string]string{} // identity -> first atomic-access loc
	plainAt := map[string]string{}  // identity -> first imported plain-access loc
	for _, a := range local {
		ids[a.id] = true
		if _, ok := atomicAt[a.id]; !ok && a.kind == accessAtomic {
			atomicAt[a.id] = shortLoc(pass.Fset, a.pos)
		}
	}
	for _, q := range pass.IPA().deps[pass.pkg] {
		for _, a := range census.byPkg[q] {
			if !ids[a.id] || q.justified(a.pos, "atomicmix") {
				continue
			}
			side := atomicAt
			if a.kind == accessPlain {
				side = plainAt
			}
			if _, ok := side[a.id]; !ok {
				side[a.id] = shortLoc(q.Fset, a.pos)
			}
		}
	}

	seen := map[token.Pos]bool{}
	for _, a := range local {
		if seen[a.pos] {
			continue
		}
		switch a.kind {
		case accessPlain:
			if loc, ok := atomicAt[a.id]; ok {
				seen[a.pos] = true
				pass.Reportf(a.pos, "plain %s of %s, which is accessed with sync/atomic at %s: mixing atomic and plain access is a data race", rw(a.write), a.id, loc)
			}
		case accessAtomic:
			// The local-plain case is reported at the plain site above;
			// this arm only fires when the plain side lives in another
			// package.
			if loc, ok := plainAt[a.id]; ok {
				seen[a.pos] = true
				pass.Reportf(a.pos, "atomic %s of %s, which is read/written plainly at %s: mixing atomic and plain access is a data race", rw(a.write), a.id, loc)
			}
		}
	}
}

func rw(write bool) string {
	if write {
		return "write"
	}
	return "read"
}
