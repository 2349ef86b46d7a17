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
	grows := findGrows(pass.TypesInfo, n.Body, bounded)
	if len(grows) == 0 {
		return
	}
	fg := pass.IPA().FlowGraph(n)
	relCache := map[*boundedField][]bool{}
	for _, g := range grows {
		blk, nodeIdx := locateNode(fg, g.node)
		if blk == nil {
			continue // dead code the CFG dropped
		}
		guarded := dominatedByCheck(pass.TypesInfo, fg, blk, g.bf)
		if !guarded && g.bf.kind != boundCounter {
			guarded = trimmedAfter(pass.TypesInfo, fg, blk, g.bf)
		}
		if !guarded {
			switch g.bf.kind {
			case boundCounter:
				pass.Reportf(g.pos, "enqueue on bounded %s.%s is not dominated by a capacity check: a path from function entry reaches this admission without comparing the counter against its cap", g.bf.typeName.Name(), g.bf.field.Name())
			default:
				pass.Reportf(g.pos, "grow of bounded %s.%s has a path from function entry with no capacity check before it and no trim on every path to return", g.bf.typeName.Name(), g.bf.field.Name())
			}
		}
		if g.bf.kind == boundCounter && g.kind == growCAS {
			relOK := relCache[g.bf]
			if relOK == nil {
				relOK = releaseStates(pass.TypesInfo, fg, g.bf)
				relCache[g.bf] = relOK
			}
			if !slotSettled(pass.TypesInfo, fg, relOK, blk, nodeIdx, g) {
				pass.Reportf(g.pos, "admission on bounded %s.%s can reach return without committing the slot or releasing it: an early return here leaks capacity permanently", g.bf.typeName.Name(), g.bf.field.Name())
			}
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
func locateNode(fg *FlowGraph, n ast.Node) (*Block, int) {
	for _, blk := range fg.Blocks {
		for i, top := range blk.Nodes {
			found := false
			ast.Inspect(top, func(sub ast.Node) bool {
				if sub == n {
					found = true
				}
				return !found
			})
			if found {
				return blk, i
			}
		}
	}
	return nil, 0
}

// dominatedByCheck reports whether every path from entry to blk passes an
// edge whose condition compares a field-derived value: DFS from entry that
// refuses to cross check edges must fail to reach blk.
func dominatedByCheck(info *types.Info, fg *FlowGraph, blk *Block, bf *boundedField) bool {
	if blk == fg.Entry {
		return false
	}
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		if b == blk {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, e := range b.Succs {
			if condChecksField(info, fg, e.Cond, bf) {
				continue
			}
			if walk(e.To) {
				return true
			}
		}
		return false
	}
	return !walk(fg.Entry)
}

// trimmedAfter reports whether every path from blk to exit passes a
// field-derived check edge — the append-then-clamp idiom. Greatest
// fixpoint: assume yes, strip blocks with an unchecked path out.
func trimmedAfter(info *types.Info, fg *FlowGraph, blk *Block, bf *boundedField) bool {
	ok := make([]bool, len(fg.Blocks))
	for i := range ok {
		ok[i] = true
	}
	ok[fg.Exit.Index] = false
	for changed := true; changed; {
		changed = false
		for _, b := range fg.Blocks {
			if !ok[b.Index] || b == fg.Exit {
				continue
			}
			holds := len(b.Succs) > 0
			for _, e := range b.Succs {
				if condChecksField(info, fg, e.Cond, bf) {
					continue
				}
				if !ok[e.To.Index] {
					holds = false
					break
				}
			}
			if !holds {
				ok[b.Index] = false
				changed = true
			}
		}
	}
	return ok[blk.Index]
}

// condChecksField reports whether a branch condition contains a comparison
// with an operand derived from the bounded field — directly (len(X.f),
// X.f.Load() inside the expression) or through one level of local-variable
// definition (d := X.f.Load(); ... d >= cap).
func condChecksField(info *types.Info, fg *FlowGraph, cond ast.Expr, bf *boundedField) bool {
	if cond == nil {
		return false
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if !ok || found {
			return !found
		}
		switch b.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			if derivesFromField(info, fg, b.X, bf) || derivesFromField(info, fg, b.Y, bf) {
				found = true
			}
		}
		return !found
	})
	return found
}

func derivesFromField(info *types.Info, fg *FlowGraph, e ast.Expr, bf *boundedField) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if isBoundedSelector(info, x, bf) {
				found = true
				return false
			}
		case *ast.Ident:
			v, ok := info.Uses[x].(*types.Var)
			if !ok {
				return true
			}
			ch := fg.DefUse[v]
			if ch == nil {
				return true
			}
			for _, def := range ch.Defs {
				if def.Rhs == nil {
					continue
				}
				if selectorMentionsField(info, def.Rhs, bf) {
					found = true
					return false
				}
			}
		}
		return !found
	})
	return found
}

func selectorMentionsField(info *types.Info, e ast.Expr, bf *boundedField) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && isBoundedSelector(info, sel, bf) {
			found = true
		}
		return !found
	})
	return found
}

// releaseStates computes, per block, whether every path from it to exit
// settles an admitted slot: passes a block containing a release (counter
// decrement) or a commit (channel send — the slot's occupancy transfers to
// the queued element). Greatest fixpoint over the CFG.
func releaseStates(info *types.Info, fg *FlowGraph, bf *boundedField) []bool {
	settles := make([]bool, len(fg.Blocks))
	for _, b := range fg.Blocks {
		settles[b.Index] = blockSettles(info, b.Nodes, bf)
	}
	ok := make([]bool, len(fg.Blocks))
	for i := range ok {
		ok[i] = true
	}
	ok[fg.Exit.Index] = false
	for changed := true; changed; {
		changed = false
		for _, b := range fg.Blocks {
			if !ok[b.Index] || b == fg.Exit || settles[b.Index] {
				continue
			}
			holds := len(b.Succs) > 0
			for _, e := range b.Succs {
				if !ok[e.To.Index] {
					holds = false
					break
				}
			}
			if !holds {
				ok[b.Index] = false
				changed = true
			}
		}
	}
	return ok
}

func blockSettles(info *types.Info, nodes []ast.Node, bf *boundedField) bool {
	for _, n := range nodes {
		found := false
		ast.Inspect(n, func(sub ast.Node) bool {
			switch x := sub.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt:
				found = true
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && isBoundedSelector(info, sel.X, bf) {
					switch sel.Sel.Name {
					case "Add":
						if len(x.Args) == 1 {
							if v, ok := constIntValue(info, x.Args[0]); ok && v < 0 {
								found = true
							}
						}
					case "CompareAndSwap":
						if len(x.Args) == 2 && isDecrementOf(info, x.Args[1], x.Args[0]) {
							found = true
						}
					}
				}
			case *ast.IncDecStmt:
				if x.Tok == token.DEC && isBoundedSelector(info, x.X, bf) {
					found = true
				}
			case *ast.AssignStmt:
				if x.Tok == token.SUB_ASSIGN && len(x.Lhs) == 1 && isBoundedSelector(info, x.Lhs[0], bf) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// slotSettled verifies the admitted slot is settled on every path after the
// grow: the remainder of the grow's own block, then (for a CAS admission)
// the true-edge successors, or all successors for an unconditional grow.
func slotSettled(info *types.Info, fg *FlowGraph, relOK []bool, blk *Block, nodeIdx int, g *growSite) bool {
	if blockSettles(info, blk.Nodes[nodeIdx+1:], g.bf) {
		return true
	}
	for _, e := range blk.Succs {
		if g.kind == growCAS && e.Cond != nil {
			// The slot exists only where the CAS succeeded: skip edges whose
			// condition is the CAS with Sense == false, and edges that do
			// not involve the CAS at all keep both outcomes possible.
			if condContains(e.Cond, g.node) && !e.Sense {
				continue
			}
		}
		if e.To != fg.Exit && !relOK[e.To.Index] {
			return false
		}
		if e.To == fg.Exit {
			return false
		}
	}
	return len(blk.Succs) > 0
}

func condContains(cond ast.Expr, n ast.Node) bool {
	found := false
	ast.Inspect(cond, func(sub ast.Node) bool {
		if sub == n {
			found = true
		}
		return !found
	})
	return found
}
