package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
)

// Locksafe reports functions that acquire a sync.Mutex or sync.RWMutex and
// can reach a return (or fall off the end of the function) with the lock
// still held and no deferred unlock registered. DarNet's controller, clock,
// frame store, and tsdb are all lock-guarded hot paths serving concurrent
// agent connections; a leaked lock deadlocks the whole collection plane.
//
// The check reads the leaks the held-lock walk below recorded per function.
// Genuinely intentional cross-function locking must carry a
// //lint:ignore locksafe directive.
var Locksafe = &Analyzer{
	Name: "locksafe",
	Doc:  "a mutex lock must be released on every return path or deferred",
	Run:  runLocksafe,
}

func runLocksafe(pass *Pass) {
	report := func(n *FuncNode) {
		for _, l := range n.summary.LockLeaks {
			pass.Reportf(l.Pos, "%s", l.What)
		}
	}
	for _, n := range pass.Nodes() {
		report(n)
	}
	// Deferred and package-level function literals have no call-graph
	// node; each is still its own function with its own lock state.
	g := pass.IPA().Graph
	for _, f := range pass.Files {
		ast.Inspect(f, func(x ast.Node) bool {
			if lit, ok := x.(*ast.FuncLit); ok && g.byLit[lit] == nil {
				n := &FuncNode{Pkg: pass.pkg, Lit: lit, Body: lit.Body, summary: newSummary()}
				computeLocks(g, n)
				report(n)
			}
			return true
		})
	}
}

// The held-lock walk is the one source of both lock facts: locksafe's leaks
// and lockorder's acquisition-order pairs ("lock A was held while lock B
// was acquired", where B may be acquired directly or anywhere inside a
// callee, using the callee's fixpoint Acquires set).
//
// It is a conservative, path-insensitive walk: statements are processed in
// source order, branch bodies see a copy of the held set so branch-local
// acquisitions and releases do not leak out (unlock-and-return inside a
// branch is fine, as is lock/unlock in straight line), and function
// literals are their own nodes (an immediately invoked literal still
// contributes pairs through its call edge). `go` statements are skipped:
// the spawned goroutine's acquisitions are not ordered against the
// spawner's held locks.
//
// The held set is keyed by receiver text, so a.mu and b.mu of one type
// are released separately and match the deferred unlocks by name; pairs
// are keyed by lockIdentity, so they unify across variables of one type.

// heldLock is one acquisition on the walk's held set.
type heldLock struct {
	id  string // lockIdentity of the receiver
	pos token.Pos
}

// computeLocks runs the held-lock walk over n's body, filling
// n.summary.Pairs and n.summary.LockLeaks. Must run after propagate, so
// callee Acquires sets are final.
func computeLocks(g *CallGraph, n *FuncNode) {
	w := &lockWalker{n: n, g: g, s: n.summary, deferred: make(map[string]bool)}
	ast.Inspect(n.Body, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // its own function, with its own defer stack
		case *ast.DeferStmt:
			w.markDeferred(x)
		}
		return true
	})
	held := w.stmts(n.Body.List, make(map[string]heldLock))
	w.checkEnd(held)
}

type lockWalker struct {
	n *FuncNode
	g *CallGraph
	s *Summary
	// deferred holds the receiver texts a defer statement unlocks.
	deferred map[string]bool
}

// markDeferred records the unlocks a defer statement guarantees, including
// the defer func() { mu.Unlock() }() form.
func (w *lockWalker) markDeferred(d *ast.DeferStmt) {
	release := func(call *ast.CallExpr) {
		if lock, kind, ok := mutexOp(w.n.Pkg.Info, call); ok && kind == mutexRelease {
			w.deferred[types.ExprString(lock)] = true
		}
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				release(call)
			}
			return true
		})
		return
	}
	release(d.Call)
}

// leak records one locksafe finding per lock in held that no defer
// releases, in name order: anchored at ret for a return statement, or at
// the acquisition when ret is NoPos (control falls off the end).
func (w *lockWalker) leak(held map[string]heldLock, ret token.Pos) {
	names := make([]string, 0, len(held))
	for name := range held {
		if !w.deferred[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if ret.IsValid() {
			w.s.LockLeaks = append(w.s.LockLeaks, Site{ret, fmt.Sprintf("return with %s still locked and no deferred unlock", name)})
		} else {
			w.s.LockLeaks = append(w.s.LockLeaks, Site{held[name].pos, fmt.Sprintf("%s is locked here but the function can exit without unlocking it", name)})
		}
	}
}

func (w *lockWalker) pair(held map[string]heldLock, acquired string, pos token.Pos) {
	for _, h := range held {
		key := [2]string{h.id, acquired}
		if _, ok := w.s.Pairs[key]; !ok {
			w.s.Pairs[key] = pos
		}
	}
}

// scan processes every call expression in one expression/statement fragment
// in source order, updating held and recording pairs. Function literals and
// go statements are not descended into.
func (w *lockWalker) scan(node ast.Node, held map[string]heldLock) {
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
func (w *lockWalker) call(call *ast.CallExpr, held map[string]heldLock) {
	info := w.n.Pkg.Info
	if lock, kind, ok := mutexOp(info, call); ok {
		name := types.ExprString(lock)
		switch kind {
		case mutexAcquire:
			id := lockIdentity(info, lock)
			w.pair(held, id, call.Pos())
			held[name] = heldLock{id, call.Pos()}
		case mutexRelease:
			delete(held, name)
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
func (w *lockWalker) stmts(list []ast.Stmt, held map[string]heldLock) map[string]heldLock {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]heldLock) map[string]heldLock {
	branch := func(body *ast.BlockStmt) {
		if body != nil {
			w.stmts(body.List, maps.Clone(held))
		}
	}
	switch s := s.(type) {
	case *ast.ReturnStmt:
		w.scan(s, held)
		w.leak(held, s.Pos())
	case *ast.IfStmt:
		w.scan(s.Init, held)
		w.scan(s.Cond, held)
		branch(s.Body)
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			branch(e)
		case *ast.IfStmt:
			w.stmt(e, maps.Clone(held))
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
		w.stmts(s.Body, maps.Clone(held))
	case *ast.CommClause:
		w.scan(s.Comm, held)
		w.stmts(s.Body, maps.Clone(held))
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

// checkEnd records locks still held when control falls off the end of the
// body, unless the final statement cannot fall through (returns are handled
// in stmt; panics and condition-less for loops terminate without falling
// through).
func (w *lockWalker) checkEnd(held map[string]heldLock) {
	if list := w.n.Body.List; len(list) > 0 {
		switch last := list[len(list)-1].(type) {
		case *ast.ReturnStmt:
			return
		case *ast.ForStmt:
			if last.Cond == nil {
				return
			}
		case *ast.ExprStmt:
			if call, ok := last.X.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
					return
				}
			}
		}
	}
	w.leak(held, token.NoPos)
}
