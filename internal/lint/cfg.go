package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the flow-sensitive intermediate representation the
// concurrency analyzers (chanlife, atomicmix, qbound) run on: a lightweight
// per-function control-flow graph of basic blocks with branch-condition
// facts on the edges, plus def-use chains for the function's local
// variables. It is deliberately SSA-lite — no phi nodes, no virtual
// registers — because the analyses that need it track a small number of
// facts per *types.Var and join at block boundaries; a full SSA form would
// buy precision these lattices cannot represent anyway.
//
// The graph is built once per function and memoized on the IPA (see
// IPA.FlowGraph), so analyzers share one construction, and AnalyzeModule
// can force it eagerly to account IR construction as its own -timings
// phase.

// Block is one basic block: statements and evaluated conditions in source
// order, ending in zero or more successor edges. A block with no successors
// other than Exit ends the function (return, panic, or fallthrough off the
// body).
type Block struct {
	Index int
	// Nodes are the statements and condition expressions evaluated in this
	// block, in execution order. Conditions of branches out of this block
	// appear as their ast.Expr; comm statements of select clauses appear as
	// the first node of the clause's block.
	Nodes []ast.Node
	Succs []Edge
	Preds []*Block
}

// Edge is one control transfer. When Cond is non-nil the edge is taken only
// when Cond evaluates to Sense, which is what lets dataflow refine facts
// per branch ("ch != nil" on the true edge, a CAS that succeeded, ...).
type Edge struct {
	To    *Block
	Cond  ast.Expr
	Sense bool
}

// FlowGraph is the per-function CFG plus its def-use index.
type FlowGraph struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the single synthetic exit block: every return, panic, and
	// fall-off-the-end edge lands here. It holds no nodes.
	Exit *Block
	// DefUse indexes the function's local variables (params included) to
	// their definition and use sites inside this graph.
	DefUse map[*types.Var]*VarChains
}

// VarChains is the def-use record of one local variable.
type VarChains struct {
	// Defs are assignments (including := and the declaration itself when it
	// has an initializer); Rhs is the defining expression when the
	// assignment pairs one-to-one, nil otherwise (multi-value, ++/--).
	Defs []ChainSite
	// Uses are reads of the variable.
	Uses []ChainSite
}

// ChainSite is one def or use, anchored to its block.
type ChainSite struct {
	Block *Block
	Node  ast.Node
	Rhs   ast.Expr // defs only
	Pos   token.Pos
}

// cfgBuilder incrementally builds a FlowGraph from a function body.
type cfgBuilder struct {
	fg  *FlowGraph
	cur *Block

	// break/continue targets, innermost last. Each frame carries the label
	// of the statement it belongs to ("" for unlabeled).
	breaks    []branchTarget
	continues []branchTarget
	labels    map[string]*Block // goto targets
	gotos     []pendingGoto
}

type branchTarget struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

// BuildCFG constructs the control-flow graph of one function body. The body
// may be nil (external declarations) — the graph is then entry→exit only.
func BuildCFG(body *ast.BlockStmt) *FlowGraph {
	fg := &FlowGraph{DefUse: make(map[*types.Var]*VarChains)}
	b := &cfgBuilder{fg: fg, labels: make(map[string]*Block)}
	fg.Entry = b.newBlock()
	fg.Exit = b.newBlock()
	b.cur = fg.Entry
	if body != nil {
		b.stmts(body.List)
	}
	b.edge(b.cur, fg.Exit, nil, false)
	for _, g := range b.gotos {
		if target, ok := b.labels[g.label]; ok {
			b.edge(g.from, target, nil, false)
		} else {
			b.edge(g.from, fg.Exit, nil, false)
		}
	}
	return fg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.fg.Blocks)}
	b.fg.Blocks = append(b.fg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block, cond ast.Expr, sense bool) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, Edge{To: to, Cond: cond, Sense: sense})
	to.Preds = append(to.Preds, from)
}

// add appends a node to the current block.
func (b *cfgBuilder) add(n ast.Node) {
	if n != nil {
		b.cur.Nodes = append(b.cur.Nodes, n)
	}
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// terminate ends the current block with an edge to `to` and starts a fresh
// (initially unreachable) block for any trailing dead code.
func (b *cfgBuilder) terminate(to *Block) {
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
		b.terminate(b.fg.Exit)

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
				b.terminate(b.fg.Exit)
			}
		case token.CONTINUE:
			if t := findTarget(b.continues, label); t != nil {
				b.terminate(t)
			} else {
				b.terminate(b.fg.Exit)
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
			b.terminate(b.fg.Exit)
		}

	default:
		// Assignments, declarations, sends, defers, go statements, inc/dec:
		// straight-line nodes the dataflow interprets.
		b.add(s)
	}
}

func findTarget(stack []branchTarget, label string) *Block {
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
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		if cc.List == nil {
			hasDefault = true
		}
		// Case guard expressions are evaluated in the dispatch block.
		for _, e := range cc.List {
			evalBlock.Nodes = append(evalBlock.Nodes, e)
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

// --- Def-use chains ---------------------------------------------------------

// buildDefUse walks the finished graph and indexes every local variable's
// defs and uses. Only variables local to the analyzed function (params
// included) are indexed; package-level vars and fields belong to coarser,
// identity-keyed analyses (atomicmix).
func buildDefUse(fg *FlowGraph, info *types.Info) {
	record := func(blk *Block, id *ast.Ident, node ast.Node, rhs ast.Expr, isDef bool) {
		var v *types.Var
		if obj := info.Defs[id]; obj != nil {
			v, _ = obj.(*types.Var)
		} else if obj := info.Uses[id]; obj != nil {
			v, _ = obj.(*types.Var)
		}
		if v == nil || v.IsField() || isPackageLevel(v) {
			return
		}
		ch := fg.DefUse[v]
		if ch == nil {
			ch = &VarChains{}
			fg.DefUse[v] = ch
		}
		site := ChainSite{Block: blk, Node: node, Rhs: rhs, Pos: id.Pos()}
		if isDef {
			ch.Defs = append(ch.Defs, site)
		} else {
			ch.Uses = append(ch.Uses, site)
		}
	}
	for _, blk := range fg.Blocks {
		for _, n := range blk.Nodes {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						var rhs ast.Expr
						if len(x.Rhs) == len(x.Lhs) {
							rhs = x.Rhs[i]
						}
						record(blk, id, x, rhs, true)
					}
				}
				for _, rhs := range x.Rhs {
					collectUses(blk, rhs, record)
				}
			case *ast.IncDecStmt:
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					record(blk, id, x, nil, true)
					record(blk, id, x, nil, false)
				}
			case *ast.DeclStmt:
				gd, ok := x.Decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						var rhs ast.Expr
						if len(vs.Values) == len(vs.Names) {
							rhs = vs.Values[i]
						}
						record(blk, name, x, rhs, true)
					}
					for _, v := range vs.Values {
						collectUses(blk, v, record)
					}
				}
			case *ast.RangeStmt:
				for _, lhs := range []ast.Expr{x.Key, x.Value} {
					if lhs == nil {
						continue
					}
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name != "_" {
						record(blk, id, x, nil, true)
					}
				}
				collectUses(blk, x.X, record)
			default:
				if e, usable := n.(ast.Expr); usable {
					collectUses(blk, e, record)
				} else {
					ast.Inspect(n, func(sub ast.Node) bool {
						if e, ok := sub.(ast.Expr); ok {
							collectUses(blk, e, record)
							return false
						}
						return true
					})
				}
			}
		}
	}
}

func collectUses(blk *Block, e ast.Expr, record func(*Block, *ast.Ident, ast.Node, ast.Expr, bool)) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			record(blk, id, id, nil, false)
		}
		return true
	})
}

func isPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// --- IPA integration --------------------------------------------------------

// FlowGraph returns the memoized control-flow graph of one function node,
// building it on first use. Analyzers reach it through Pass.IPA().
func (ipa *IPA) FlowGraph(n *FuncNode) *FlowGraph {
	if fg, ok := ipa.flows[n]; ok {
		return fg
	}
	fg := BuildCFG(n.Body)
	buildDefUse(fg, n.Pkg.Info)
	ipa.flows[n] = fg
	return fg
}
