package lint

import (
	"go/ast"
	"go/token"
)

// This file derives lock-acquisition-order pairs per function: "lock A was
// held while lock B was acquired", where B may be acquired directly or
// anywhere inside a callee (using the callee's fixpoint Acquires set). The
// lockorder analyzer folds every function's pairs into one graph and
// reports cycles.
//
// The walk mirrors locksafe's conservative shape: statements are processed
// in source order, branch bodies see a copy of the held set so branch-local
// acquisitions do not leak out, and function literals are their own nodes
// (an immediately invoked literal still contributes through its call edge).
// `go` statements are skipped entirely: the spawned goroutine's
// acquisitions are not ordered against the spawner's held locks.

// computePairs fills n.summary.Pairs. Must run after propagate, so callee
// Acquires sets are final.
func computePairs(g *CallGraph, n *FuncNode) {
	w := &pairWalker{n: n, g: g, s: n.summary}
	w.stmts(n.Body.List, make(map[string]token.Pos))
}

type pairWalker struct {
	n *FuncNode
	g *CallGraph
	s *Summary
}

func (w *pairWalker) pair(held map[string]token.Pos, acquired string, pos token.Pos) {
	for h := range held {
		key := [2]string{h, acquired}
		if _, ok := w.s.Pairs[key]; !ok {
			w.s.Pairs[key] = pos
		}
	}
}

// scan processes every call expression in one expression/statement fragment
// in source order, updating held and recording pairs. Function literals and
// go statements are not descended into.
func (w *pairWalker) scan(node ast.Node, held map[string]token.Pos) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(x ast.Node) bool {
		switch c := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			w.call(c, held)
		}
		return true
	})
}

// call handles one call expression: a mutex operation updates the held set,
// anything resolving to analyzed functions imports their acquire sets as
// pairs against the locks currently held.
func (w *pairWalker) call(call *ast.CallExpr, held map[string]token.Pos) {
	if id, kind, ok := mutexOp(w.n.Pkg.Info, call); ok {
		switch kind {
		case mutexAcquire:
			w.pair(held, id, call.Pos())
			held[id] = call.Pos()
		case mutexRelease:
			delete(held, id)
		}
		return
	}
	var targets []*FuncNode
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		if n := w.g.byLit[lit]; n != nil {
			targets = []*FuncNode{n}
		}
	} else {
		targets, _ = w.g.resolve(w.n, call)
	}
	for _, t := range targets {
		for id := range t.summary.Acquires {
			w.pair(held, id, call.Pos())
		}
	}
}

// stmts walks a statement list, threading the held set along the
// fall-through path and copying it into branches.
func (w *pairWalker) stmts(list []ast.Stmt, held map[string]token.Pos) map[string]token.Pos {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *pairWalker) stmt(s ast.Stmt, held map[string]token.Pos) map[string]token.Pos {
	branch := func(body *ast.BlockStmt) {
		if body != nil {
			w.stmts(body.List, copyHeld(held))
		}
	}
	switch s := s.(type) {
	case *ast.IfStmt:
		w.scan(s.Init, held)
		w.scan(s.Cond, held)
		branch(s.Body)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			w.stmts(e.List, copyHeld(held))
		case *ast.IfStmt:
			w.stmt(e, copyHeld(held))
		}
	case *ast.ForStmt:
		w.scan(s.Init, held)
		w.scan(s.Cond, held)
		w.scan(s.Post, held)
		branch(s.Body)
	case *ast.RangeStmt:
		w.scan(s.X, held)
		branch(s.Body)
	case *ast.SwitchStmt:
		w.scan(s.Init, held)
		w.scan(s.Tag, held)
		branch(s.Body)
	case *ast.TypeSwitchStmt:
		w.scan(s.Init, held)
		w.scan(s.Assign, held)
		branch(s.Body)
	case *ast.SelectStmt:
		branch(s.Body)
	case *ast.CaseClause:
		for _, e := range s.List {
			w.scan(e, held)
		}
		w.stmts(s.Body, copyHeld(held))
	case *ast.CommClause:
		w.scan(s.Comm, held)
		w.stmts(s.Body, copyHeld(held))
	case *ast.BlockStmt:
		held = w.stmts(s.List, held)
	case *ast.LabeledStmt:
		held = w.stmt(s.Stmt, held)
	case *ast.DeferStmt:
		// A deferred unlock releases at return; the lock stays held for
		// the rest of the body, so only deferred *acquisitions* are
		// scanned (against the current held set, an approximation of the
		// set at return).
		if _, kind, ok := mutexOp(w.n.Pkg.Info, s.Call); ok && kind == mutexRelease {
			return held
		}
		w.scan(s.Call, held)
	case *ast.GoStmt:
		// Spawner's held locks do not order the goroutine's acquisitions.
	default:
		w.scan(s, held)
	}
	return held
}
