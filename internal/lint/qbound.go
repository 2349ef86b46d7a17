package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Qbound verifies bounded-queue invariants declared with a
//
//	//lint:bounded <field>
//
// directive on a queue type's declaration. The named field is the type's
// occupancy ledger — a CAS'd depth counter, a spill slice, a capped series
// map — and the analyzer checks, over the flow-sensitive IR, that the bound
// is actually enforced on every path:
//
//   - every grow of the field (counter increment / CAS-admission, append
//     assigned back, map insert) is dominated by a capacity check — a
//     branch comparing a value derived from the field against a limit —
//     or, for slice/map fields only, followed by a trim check on every
//     path to return (the append-then-clamp idiom);
//   - after a CAS admission succeeds, every path to return either commits
//     the slot (a channel send hands it to the consumer) or releases it (a
//     decrement) — an early return between the CAS and the enqueue would
//     leak capacity forever. Plain guarded increments carry no such
//     obligation: they are not two-phase, the increment is the commit.
//
// Counter grows insist on check-*before* deliberately: a check after the
// increment still lets the counter overshoot its cap transiently, which is
// exactly the invariant (`depth <= cap` at all times) the annotation
// promises.
var Qbound = &Analyzer{
	Name: "qbound",
	Doc:  "//lint:bounded queue fields must have every enqueue path guarded by a capacity check and every admission released or committed",
	Run:  runQbound,
}

// boundedField is one //lint:bounded annotation resolved to its field.
type boundedField struct {
	typeName *types.TypeName
	field    *types.Var
	kind     boundedKind
	pos      token.Pos
}

type boundedKind int8

const (
	boundCounter boundedKind = iota
	boundSlice
	boundMap
)

func runQbound(pass *Pass) {
	bounded := collectBounded(pass)
	if len(bounded) == 0 {
		return
	}
	for _, n := range pass.Nodes() {
		checkBoundedFunc(pass, n, bounded)
	}
}

// collectBounded parses the //lint:bounded directives on the package's type
// declarations. An unresolvable field name is itself a finding — a silent
// typo would silently verify nothing.
func collectBounded(pass *Pass) []*boundedField {
	var out []*boundedField
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				for _, doc := range []*ast.CommentGroup{gd.Doc, ts.Doc} {
					if doc == nil {
						continue
					}
					for _, c := range doc.List {
						if !commentIsDirective(c.Text, "lint:bounded") {
							continue
						}
						rest, _ := cutCommentMarker(c.Text)
						fields := strings.Fields(rest)
						if len(fields) < 2 {
							pass.Reportf(c.Pos(), "malformed directive: want //lint:bounded <field>")
							continue
						}
						out = append(out, resolveBounded(pass, ts, fields[1], c.Pos())...)
					}
				}
			}
		}
	}
	return out
}

func resolveBounded(pass *Pass, ts *ast.TypeSpec, fieldName string, pos token.Pos) []*boundedField {
	tn, _ := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if tn == nil {
		return nil
	}
	// Resolution errors anchor at the type name, the line the annotation
	// governs.
	st, ok := tn.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(ts.Name.Pos(), "//lint:bounded on %s, which is not a struct type", tn.Name())
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		fv := st.Field(i)
		if fv.Name() != fieldName {
			continue
		}
		kind, ok := boundedKindOf(fv.Type())
		if !ok {
			pass.Reportf(ts.Name.Pos(), "//lint:bounded field %s.%s has type %s; want a counter, slice, or map", tn.Name(), fieldName, fv.Type())
			return nil
		}
		return []*boundedField{{typeName: tn, field: fv, kind: kind, pos: pos}}
	}
	pass.Reportf(ts.Name.Pos(), "//lint:bounded names field %q, which %s does not have", fieldName, tn.Name())
	return nil
}

// boundedKindOf classifies the annotated field: sync/atomic integer
// wrappers and basic integers are counters; slices and maps hold the queued
// elements directly.
func boundedKindOf(t types.Type) (boundedKind, bool) {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" {
			switch obj.Name() {
			case "Int32", "Int64", "Uint32", "Uint64", "Uintptr":
				return boundCounter, true
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsInteger != 0 {
			return boundCounter, true
		}
	case *types.Slice:
		return boundSlice, true
	case *types.Map:
		return boundMap, true
	}
	return 0, false
}

// growKind distinguishes how a site changes the occupancy.
type growKind int8

const (
	growAdd growKind = iota // unconditional increment / append / map insert
	growCAS                 // admission: occupies only on the true edge
)

// growSite is one occupancy-increasing operation on a bounded field.
type growSite struct {
	node ast.Node // the call / assign / incdec carrying the grow
	pos  token.Pos
	kind growKind
	bf   *boundedField
}

func checkBoundedFunc(pass *Pass, n *FuncNode, bounded []*boundedField) {
	info := pass.TypesInfo
	grows := findGrows(info, n.Body, bounded)
	if len(grows) == 0 {
		return
	}
	fg := pass.IPA().flowGraph(n)
	defs := localDefs(info, fg)
	for _, g := range grows {
		blk, nodeIdx := locateNode(fg, g.node)
		if blk == nil {
			continue // dead code the CFG dropped
		}
		// A check edge compares a value derived from the field. The grow is
		// guarded when no path from entry reaches it without crossing one
		// or, for slices and maps, when no path from it reaches return
		// without crossing one (the append-then-clamp idiom).
		checks := func(e edge) bool { return condChecksField(info, defs, e.cond, g.bf) }
		guarded := !fg.reaches(fg.entry, func(b *block) bool { return b == blk }, checks, nil)
		if !guarded && g.bf.kind != boundCounter {
			guarded = !fg.reaches(blk, fg.ends, checks, nil)
		}
		if !guarded {
			switch g.bf.kind {
			case boundCounter:
				pass.Reportf(g.pos, "enqueue on bounded %s.%s is not dominated by a capacity check: a path from function entry reaches this admission without comparing the counter against its cap", g.bf.typeName.Name(), g.bf.field.Name())
			default:
				pass.Reportf(g.pos, "grow of bounded %s.%s has a path from function entry with no capacity check before it and no trim on every path to return", g.bf.typeName.Name(), g.bf.field.Name())
			}
		}
		if g.bf.kind == boundCounter && g.kind == growCAS && !slotSettled(info, fg, blk, nodeIdx, g) {
			pass.Reportf(g.pos, "admission on bounded %s.%s can reach return without committing the slot or releasing it: an early return here leaks capacity permanently", g.bf.typeName.Name(), g.bf.field.Name())
		}
	}
}

// findGrows scans a function body for occupancy-increasing operations on
// the bounded fields.
func findGrows(info *types.Info, body ast.Node, bounded []*boundedField) []*growSite {
	var out []*growSite
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			for _, bf := range bounded {
				if bf.kind != boundCounter {
					continue
				}
				if kind, ok := counterGrowCall(info, x, bf); ok {
					out = append(out, &growSite{node: x, pos: x.Pos(), kind: kind, bf: bf})
				}
			}
		case *ast.IncDecStmt:
			for _, bf := range bounded {
				if bf.kind == boundCounter && x.Tok == token.INC && isBoundedSelector(info, x.X, bf) {
					out = append(out, &growSite{node: x, pos: x.Pos(), kind: growAdd, bf: bf})
				}
			}
		case *ast.AssignStmt:
			out = append(out, assignGrows(info, x, bounded)...)
		}
		return true
	})
	return out
}

// counterGrowCall matches X.f.Add(positive) and
// X.f.CompareAndSwap(old, old+positive) on a wrapper-typed counter.
func counterGrowCall(info *types.Info, call *ast.CallExpr, bf *boundedField) (growKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !isBoundedSelector(info, sel.X, bf) {
		return 0, false
	}
	switch sel.Sel.Name {
	case "Add":
		if len(call.Args) == 1 {
			if v, ok := constIntValue(info, call.Args[0]); ok && v > 0 {
				return growAdd, true
			}
		}
	case "CompareAndSwap":
		if len(call.Args) == 2 && !isDecrementOf(info, call.Args[1], call.Args[0]) {
			return growCAS, true
		}
	}
	return 0, false
}

// isDecrementOf reports whether newExpr is oldExpr minus a positive
// constant — a releasing CAS, not an admission.
func isDecrementOf(info *types.Info, newExpr, oldExpr ast.Expr) bool {
	b, ok := ast.Unparen(newExpr).(*ast.BinaryExpr)
	if !ok || b.Op != token.SUB {
		return false
	}
	v, ok := constIntValue(info, b.Y)
	return ok && v > 0 && sameIdent(b.X, oldExpr)
}

func sameIdent(a, b ast.Expr) bool {
	ai, aok := ast.Unparen(a).(*ast.Ident)
	bi, bok := ast.Unparen(b).(*ast.Ident)
	return aok && bok && ai.Name == bi.Name
}

func assignGrows(info *types.Info, x *ast.AssignStmt, bounded []*boundedField) []*growSite {
	var out []*growSite
	for i, lhs := range x.Lhs {
		for _, bf := range bounded {
			switch bf.kind {
			case boundCounter:
				// X.f += n on a basic-int counter.
				if x.Tok == token.ADD_ASSIGN && isBoundedSelector(info, lhs, bf) {
					out = append(out, &growSite{node: x, pos: x.Pos(), kind: growAdd, bf: bf})
				}
			case boundSlice:
				// X.f = append(X.f, ...): the first append argument must be
				// the field itself — append(X.f[:0], ...) is a trim, not a
				// grow.
				if !isBoundedSelector(info, lhs, bf) || len(x.Rhs) != len(x.Lhs) {
					continue
				}
				call, ok := ast.Unparen(x.Rhs[i]).(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					continue
				}
				if !isBuiltinName(info, call.Fun, "append") {
					continue
				}
				if isBoundedSelector(info, call.Args[0], bf) {
					out = append(out, &growSite{node: x, pos: x.Pos(), kind: growAdd, bf: bf})
				}
			case boundMap:
				// X.f[k] = v.
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isBoundedSelector(info, ix.X, bf) {
					out = append(out, &growSite{node: x, pos: x.Pos(), kind: growAdd, bf: bf})
				}
			}
		}
	}
	return out
}

// isBoundedSelector reports whether e is a selector of the bounded field
// (on any receiver/value of the annotated type).
func isBoundedSelector(info *types.Info, e ast.Expr, bf *boundedField) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return false
	}
	return s.Obj() == bf.field
}

// locateNode finds the block whose node list contains n (possibly nested
// inside a statement or condition node) and the index of that top node.
func locateNode(fg *flowGraph, n ast.Node) (*block, int) {
	for _, blk := range fg.blocks {
		for i, top := range blk.nodes {
			if anyNode(top, false, func(sub ast.Node) bool { return sub == n }) {
				return blk, i
			}
		}
	}
	return nil, 0
}

// condChecksField reports whether a branch condition contains a comparison
// with an operand derived from the bounded field — directly (len(X.f),
// X.f.Load() inside the expression) or through one level of local-variable
// definition (d := X.f.Load(); ... d >= cap).
func condChecksField(info *types.Info, defs map[*types.Var][]ast.Expr, cond ast.Expr, bf *boundedField) bool {
	return cond != nil && anyNode(cond, false, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok {
			return false
		}
		switch b.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			return derivesFromField(info, defs, b.X, bf) || derivesFromField(info, defs, b.Y, bf)
		}
		return false
	})
}

func derivesFromField(info *types.Info, defs map[*types.Var][]ast.Expr, e ast.Expr, bf *boundedField) bool {
	return anyNode(e, false, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			return isBoundedSelector(info, x, bf)
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			for _, rhs := range defs[v] {
				if selectorMentionsField(info, rhs, bf) {
					return true
				}
			}
		}
		return false
	})
}

func selectorMentionsField(info *types.Info, e ast.Expr, bf *boundedField) bool {
	return anyNode(e, false, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		return ok && isBoundedSelector(info, sel, bf)
	})
}

// localDefs maps each local variable the graph assigns one to one (v := e,
// v = e, var v = e) to its defining expressions: the one level
// derivesFromField follows from a compared local back to the field it was
// read from.
func localDefs(info *types.Info, fg *flowGraph) map[*types.Var][]ast.Expr {
	defs := make(map[*types.Var][]ast.Expr)
	def := func(id *ast.Ident, rhs ast.Expr) {
		if v, ok := info.ObjectOf(id).(*types.Var); ok && !v.IsField() && !isPackageLevel(v) {
			defs[v] = append(defs[v], rhs)
		}
	}
	for _, blk := range fg.blocks {
		for _, n := range blk.nodes {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if len(x.Lhs) != len(x.Rhs) {
					continue
				}
				for i, lhs := range x.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						def(id, x.Rhs[i])
					}
				}
			case *ast.DeclStmt:
				gd, ok := x.Decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == len(vs.Names) {
						for i, name := range vs.Names {
							def(name, vs.Values[i])
						}
					}
				}
			}
		}
	}
	return defs
}

// blockSettles reports whether nodes settle an admitted slot: release it
// (a counter decrement) or commit it (a channel send — the slot's occupancy
// transfers to the queued element).
func blockSettles(info *types.Info, nodes []ast.Node, bf *boundedField) bool {
	settles := func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SendStmt:
			return true
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || !isBoundedSelector(info, sel.X, bf) {
				return false
			}
			switch sel.Sel.Name {
			case "Add":
				if len(x.Args) == 1 {
					v, ok := constIntValue(info, x.Args[0])
					return ok && v < 0
				}
			case "CompareAndSwap":
				return len(x.Args) == 2 && isDecrementOf(info, x.Args[1], x.Args[0])
			}
		case *ast.IncDecStmt:
			return x.Tok == token.DEC && isBoundedSelector(info, x.X, bf)
		case *ast.AssignStmt:
			return x.Tok == token.SUB_ASSIGN && len(x.Lhs) == 1 && isBoundedSelector(info, x.Lhs[0], bf)
		}
		return false
	}
	for _, n := range nodes {
		if anyNode(n, true, settles) {
			return true
		}
	}
	return false
}

// slotSettled verifies the admitted slot is settled on every path after the
// grow: in the rest of the grow's own block, or else on every path from
// each successor before the path ends. A CAS admission occupies a slot only
// where it succeeded, so the edge on which the CAS is false is skipped; a
// block with no successors settles nothing.
func slotSettled(info *types.Info, fg *flowGraph, blk *block, nodeIdx int, g *growSite) bool {
	if blockSettles(info, blk.nodes[nodeIdx+1:], g.bf) {
		return true
	}
	settles := func(b *block) bool { return blockSettles(info, b.nodes, g.bf) }
	for _, e := range blk.succs {
		if g.kind == growCAS && e.cond != nil && !e.sense && anyNode(e.cond, false, func(sub ast.Node) bool { return sub == g.node }) {
			continue
		}
		if fg.reaches(e.to, fg.ends, nil, settles) {
			return false
		}
	}
	return len(blk.succs) > 0
}
