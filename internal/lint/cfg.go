package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the flow-sensitive intermediate representation the
// concurrency analyzers (chanlife, qbound) run on: a lightweight
// per-function control-flow graph of basic blocks with branch-condition
// facts on the edges, and the one path query both ask of it. It is
// deliberately SSA-lite — no phi nodes, no virtual registers, no def-use
// index — because the analyses that need it track a small number of facts
// per *types.Var and join at block boundaries; a full SSA form would buy
// precision these lattices cannot represent anyway.
//
// A graph is built on first use and memoized on the IPA (see
// IPA.flowGraph), so only the functions an analyzer examines pay for one,
// and analyzers share that construction.

// block is one basic block: statements and evaluated conditions in source
// order, ending in zero or more successor edges. A block with no successors
// other than exit ends the function (return, panic, or fallthrough off the
// body).
type block struct {
	index int
	// nodes are the statements and condition expressions evaluated in this
	// block, in execution order. Conditions of branches out of this block
	// appear as their ast.Expr; comm statements of select clauses appear as
	// the first node of the clause's block.
	nodes []ast.Node
	succs []edge
}

// edge is one control transfer. When cond is non-nil the edge is taken only
// when cond evaluates to sense, which is what lets dataflow refine facts
// per branch ("ch != nil" on the true edge, a CAS that succeeded, ...).
type edge struct {
	to    *block
	cond  ast.Expr
	sense bool
}

// flowGraph is the per-function CFG.
type flowGraph struct {
	blocks []*block
	entry  *block
	// exit is the single synthetic exit block: every return, panic, and
	// fall-off-the-end edge lands here. It holds no nodes.
	exit *block
}

// reaches is the graph's one path query: it reports whether some path
// from `from` enters a block where to holds without taking an edge where
// cutEdge holds or entering a block where cutBlock holds. from itself is
// tested against cutBlock and to. Either cut may be nil.
func (fg *flowGraph) reaches(from *block, to func(*block) bool, cutEdge func(edge) bool, cutBlock func(*block) bool) bool {
	seen := make([]bool, len(fg.blocks))
	stack := []*block{from}
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[b.index] {
			continue
		}
		seen[b.index] = true
		if cutBlock != nil && cutBlock(b) {
			continue
		}
		if to(b) {
			return true
		}
		for _, e := range b.succs {
			if cutEdge == nil || !cutEdge(e) {
				stack = append(stack, e.to)
			}
		}
	}
	return false
}

// ends reports whether a path stops at b: the exit block, or a block with
// no successors, which the analyses count as leaving the function.
func (fg *flowGraph) ends(b *block) bool {
	return b == fg.exit || len(b.succs) == 0
}

// cfgBuilder incrementally builds a flowGraph from a function body.
type cfgBuilder struct {
	fg  *flowGraph
	cur *block

	// break/continue targets, innermost last. Each frame carries the label
	// of the statement it belongs to ("" for unlabeled).
	breaks    []branchTarget
	continues []branchTarget
	labels    map[string]*block // goto targets
	gotos     []pendingGoto
}

type branchTarget struct {
	label string
	block *block
}

type pendingGoto struct {
	from  *block
	label string
}

// buildCFG constructs the control-flow graph of one function body. The body
// may be nil (external declarations) — the graph is then entry→exit only.
func buildCFG(body *ast.BlockStmt) *flowGraph {
	fg := &flowGraph{}
	b := &cfgBuilder{fg: fg, labels: make(map[string]*block)}
	fg.entry = b.newBlock()
	fg.exit = b.newBlock()
	b.cur = fg.entry
	if body != nil {
		b.stmts(body.List)
	}
	b.edge(b.cur, fg.exit, nil, false)
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target, nil, false)
		} else {
			b.edge(g.from, fg.exit, nil, false)
		}
	}
	return fg
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{index: len(b.fg.blocks)}
	b.fg.blocks = append(b.fg.blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *block, cond ast.Expr, sense bool) {
	if from == nil || to == nil {
		return
	}
	from.succs = append(from.succs, edge{to: to, cond: cond, sense: sense})
}

// add appends a node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.nodes = append(b.cur.nodes, n)
	}
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// terminate ends the current block with an edge to `to` and starts a fresh
// (initially unreachable) block for any trailing dead code.
func (b *cfgBuilder) terminate(to *block) {
	b.edge(b.cur, to, nil, false)
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		b.stmts(x.List)

	case *ast.IfStmt:
		if x.Init != nil {
			b.stmt(x.Init)
		}
		b.add(x.Cond)
		condBlock := b.cur
		then := b.newBlock()
		after := b.newBlock()
		b.edge(condBlock, then, x.Cond, true)
		b.cur = then
		b.stmts(x.Body.List)
		b.edge(b.cur, after, nil, false)
		if x.Else != nil {
			els := b.newBlock()
			b.edge(condBlock, els, x.Cond, false)
			b.cur = els
			b.stmt(x.Else)
			b.edge(b.cur, after, nil, false)
		} else {
			b.edge(condBlock, after, x.Cond, false)
		}
		b.cur = after

	case *ast.ForStmt:
		b.buildFor(x, "")
	case *ast.RangeStmt:
		b.buildRange(x, "")

	case *ast.SwitchStmt:
		b.buildSwitch(x.Init, x.Tag, x.Body, "")
	case *ast.TypeSwitchStmt:
		b.buildSwitch(x.Init, nil, x.Body, "")

	case *ast.SelectStmt:
		b.buildSelect(x, "")

	case *ast.LabeledStmt:
		label := x.Label.Name
		// Give the labeled statement its own block so gotos have a target.
		target := b.newBlock()
		b.edge(b.cur, target, nil, false)
		b.cur = target
		b.labels[label] = target
		switch inner := x.Stmt.(type) {
		case *ast.ForStmt:
			b.buildFor(inner, label)
		case *ast.RangeStmt:
			b.buildRange(inner, label)
		case *ast.SwitchStmt:
			b.buildSwitch(inner.Init, inner.Tag, inner.Body, label)
		case *ast.TypeSwitchStmt:
			b.buildSwitch(inner.Init, nil, inner.Body, label)
		case *ast.SelectStmt:
			b.buildSelect(inner, label)
		default:
			b.stmt(x.Stmt)
		}

	case *ast.ReturnStmt:
		b.add(x)
		b.terminate(b.fg.exit)

	case *ast.BranchStmt:
		label := ""
		if x.Label != nil {
			label = x.Label.Name
		}
		switch x.Tok {
		case token.BREAK:
			if t := findTarget(b.breaks, label); t != nil {
				b.terminate(t)
			} else {
				b.terminate(b.fg.exit)
			}
		case token.CONTINUE:
			if t := findTarget(b.continues, label); t != nil {
				b.terminate(t)
			} else {
				b.terminate(b.fg.exit)
			}
		case token.GOTO:
			b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
			b.cur = b.newBlock()
		case token.FALLTHROUGH:
			// Handled by buildSwitch wiring clause i to clause i+1; the
			// statement itself carries no facts.
		}

	case *ast.ExprStmt:
		b.add(x)
		if isPanicCall(x.X) {
			b.terminate(b.fg.exit)
		}

	default:
		// Assignments, declarations, sends, defers, go statements, inc/dec:
		// straight-line nodes the dataflow interprets.
		b.add(s)
	}
}

func findTarget(stack []branchTarget, label string) *block {
	if len(stack) == 0 {
		return nil
	}
	if label == "" {
		return stack[len(stack)-1].block
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *cfgBuilder) buildFor(x *ast.ForStmt, label string) {
	if x.Init != nil {
		b.stmt(x.Init)
	}
	header := b.newBlock()
	body := b.newBlock()
	post := b.newBlock()
	after := b.newBlock()
	b.edge(b.cur, header, nil, false)
	b.cur = header
	if x.Cond != nil {
		b.add(x.Cond)
		b.edge(header, body, x.Cond, true)
		b.edge(header, after, x.Cond, false)
	} else {
		b.edge(header, body, nil, false)
	}
	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, post})
	b.cur = body
	b.stmts(x.Body.List)
	b.edge(b.cur, post, nil, false)
	b.cur = post
	if x.Post != nil {
		b.stmt(x.Post)
	}
	b.edge(b.cur, header, nil, false)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = after
}

func (b *cfgBuilder) buildRange(x *ast.RangeStmt, label string) {
	header := b.newBlock()
	body := b.newBlock()
	after := b.newBlock()
	b.edge(b.cur, header, nil, false)
	b.cur = header
	// The RangeStmt node itself carries the per-iteration effects (the
	// range expression evaluation, the key/value defs, a channel receive).
	b.add(x)
	b.edge(header, body, nil, false)
	b.edge(header, after, nil, false)
	b.breaks = append(b.breaks, branchTarget{label, after})
	b.continues = append(b.continues, branchTarget{label, header})
	b.cur = body
	b.stmts(x.Body.List)
	b.edge(b.cur, header, nil, false)
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
	b.cur = after
}

func (b *cfgBuilder) buildSwitch(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, label string) {
	if init != nil {
		b.stmt(init)
	}
	if tag != nil {
		b.add(tag)
	}
	evalBlock := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label, after})

	// Build clause bodies first so fallthrough can wire i → i+1.
	var clauses []*ast.CaseClause
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
		// Case guard expressions are evaluated in the dispatch block.
		for _, e := range cc.List {
			evalBlock.nodes = append(evalBlock.nodes, e)
		}
		b.edge(evalBlock, blocks[i], nil, false)
	}
	if !hasDefault || len(clauses) == 0 {
		b.edge(evalBlock, after, nil, false)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		b.stmts(cc.Body)
		if fallsThrough(cc.Body) && i+1 < len(clauses) {
			b.edge(b.cur, blocks[i+1], nil, false)
		} else {
			b.edge(b.cur, after, nil, false)
		}
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func (b *cfgBuilder) buildSelect(x *ast.SelectStmt, label string) {
	evalBlock := b.cur
	after := b.newBlock()
	b.breaks = append(b.breaks, branchTarget{label, after})
	wired := false
	for _, c := range x.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		clause := b.newBlock()
		b.edge(evalBlock, clause, nil, false)
		b.cur = clause
		// The comm statement (send/receive) executes only on the path
		// through its own clause — that is the fact the orphaned-send
		// check depends on.
		if cc.Comm != nil {
			b.stmt(cc.Comm)
		}
		b.stmts(cc.Body)
		b.edge(b.cur, after, nil, false)
		wired = true
	}
	if !wired {
		// select{}: blocks forever; the only way on is not through.
		b.edge(evalBlock, after, nil, false)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = after
}

func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// flowGraph returns the memoized control-flow graph of one function node,
// building it on first use. Analyzers reach it through Pass.IPA().
func (ipa *IPA) flowGraph(n *FuncNode) *flowGraph {
	fg, ok := ipa.flows[n]
	if !ok {
		fg = buildCFG(n.Body)
		ipa.flows[n] = fg
	}
	return fg
}
