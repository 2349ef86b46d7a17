package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Chanlife runs a flow-sensitive channel-lifecycle analysis over the IR in
// cfg.go: each function-local channel variable carries an abstract state —
// the set of runtime states it may be in (nil / open / closed) plus
// evidence bits for closes the analysis has witnessed — propagated through
// the control-flow graph with branch-condition refinement (`ch != nil`
// narrows the true edge) and joined at block boundaries toward "may".
//
// It reports:
//
//   - close of a channel already closed on the path (including a second
//     close scheduled by a `defer close(ch)`),
//   - send after close (a guaranteed panic when the path executes),
//   - send/receive/close on a channel that is nil along some modeled path,
//   - goroutine-orphaned unbuffered sends: a goroutine literal bare-sends
//     on an unbuffered channel its spawner created, and the spawner can
//     reach return without receiving — the precise, spawner-side
//     refinement of goleak's callee-side spawn model.
//
// Close effects cross function boundaries: a callee that provably closes a
// channel parameter carries that fact in its effect summary, so a
// `close(ch)` after `otherpkg.Shutdown(ch)` is a finding even though the
// two closes live in different packages.
var Chanlife = &Analyzer{
	Name: "chanlife",
	Doc:  "channel lifecycle states (nil/open/closed) propagated flow-sensitively must not reach close-of-closed, send-after-close, or orphaned sends",
	Run:  runChanlife,
}

func runChanlife(pass *Pass) {
	eng := pass.IPA().chanEngine()
	for _, n := range pass.Nodes() {
		eng.analyze(n)
	}
	eng.report(pass)
}

// Channel abstract state bits: the set of runtime states the channel value
// may currently be in.
const (
	chNil uint8 = 1 << iota
	chOpen
	chClosed
	chAll = chNil | chOpen | chClosed
)

// bufferKind records what the make site said about buffering.
type bufferKind int8

const (
	bufUnknown bufferKind = iota
	bufNone               // make(chan T) or make(chan T, 0)
	bufSome               // make(chan T, n>0)
)

// chanAbs is one channel variable's abstract state on one path set.
type chanAbs struct {
	bits uint8
	// mustClosed/mayClosed witness a close the analysis itself saw (in this
	// function or through a callee summary) on all/some paths reaching
	// here. Reports key off these, never off the raw bits, so a parameter
	// that merely *might* arrive closed stays silent.
	mustClosed bool
	mayClosed  bool
	closedAt   token.Pos
	// deferClose marks a `defer close(ch)` registered on every path.
	deferClose bool
	deferAt    token.Pos
	buf        bufferKind
}

func unknownChan() chanAbs { return chanAbs{bits: chAll} }

func joinChan(a, b chanAbs) chanAbs {
	out := chanAbs{
		bits:       a.bits | b.bits,
		mustClosed: a.mustClosed && b.mustClosed,
		mayClosed:  a.mayClosed || b.mayClosed,
		deferClose: a.deferClose && b.deferClose,
	}
	out.closedAt = a.closedAt
	if !out.closedAt.IsValid() {
		out.closedAt = b.closedAt
	}
	out.deferAt = a.deferAt
	if !out.deferAt.IsValid() {
		out.deferAt = b.deferAt
	}
	if a.buf == b.buf {
		out.buf = a.buf
	}
	return out
}

// chanEnv maps tracked channel variables to their abstract state. A nil map
// is the unreached (bottom) environment.
type chanEnv map[*types.Var]chanAbs

func (e chanEnv) clone() chanEnv {
	out := make(chanEnv, len(e))
	for k, v := range e {
		out[k] = v
	}
	return out
}

// joinEnvInto joins src into dst (dst is reachable). Variables missing on
// one side take that side's default (unknown): a var first assigned inside
// a branch is unknown on the path around the branch.
func joinEnvInto(dst, src chanEnv) chanEnv {
	if dst == nil {
		return src.clone()
	}
	for k, v := range src {
		if cur, ok := dst[k]; ok {
			dst[k] = joinChan(cur, v)
		} else {
			dst[k] = joinChan(unknownChan(), v)
		}
	}
	for k := range dst {
		if _, ok := src[k]; !ok {
			dst[k] = joinChan(dst[k], unknownChan())
		}
	}
	return dst
}

func envEqual(a, b chanEnv) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// chanEffects is the per-function transfer summary: what the function does
// to its channel parameters, by parameter index.
type chanEffects struct {
	params map[int]*paramChanEffect
}

type paramChanEffect struct {
	mustClose bool
	mayClose  bool
	maySend   bool
}

// chanEngine owns the chanlife state, mirroring shapeEngine: memoized
// effect summaries per function node and the deduplicated findings buffer.
type chanEngine struct {
	findingSet
	ipa     *IPA
	effects map[*FuncNode]*chanEffects
	state   map[*FuncNode]int // 0 unvisited, 1 in progress, 2 done
}

func (ipa *IPA) chanEngine() *chanEngine {
	if ipa.chans == nil {
		ipa.chans = &chanEngine{
			ipa:     ipa,
			effects: make(map[*FuncNode]*chanEffects),
			state:   make(map[*FuncNode]int),
		}
	}
	return ipa.chans
}

// effectsFor returns a declared function's channel-effect summary,
// analyzing on first use. Recursive cycles get nil (no effects assumed —
// the caller widens).
func (e *chanEngine) effectsFor(n *FuncNode) *chanEffects {
	if n == nil || e.state[n] == 1 {
		return nil
	}
	e.analyze(n)
	return e.effects[n]
}

// analyze runs the channel dataflow over one function exactly once.
func (e *chanEngine) analyze(n *FuncNode) {
	if n == nil || n.Body == nil || e.state[n] != 0 {
		return
	}
	e.state[n] = 1
	w := newChanWalker(e, n)
	w.run()
	e.effects[n] = w.summarizeEffects()
	e.state[n] = 2
}

// chanWalker analyzes one function.
type chanWalker struct {
	eng    *chanEngine
	node   *FuncNode
	fg     *flowGraph // built by run, only when a channel is tracked
	info   *types.Info
	fset   *token.FileSet
	params []*types.Var // channel-typed parameters, by signature index

	tracked map[*types.Var]bool
	// selectComm marks send/receive operations that are select comm
	// statements: a nil channel there is the standard disabled-case idiom
	// and a closed one fires only if chosen, so no checks apply.
	selectComm map[ast.Node]bool

	in        []chanEnv
	reporting bool
}

func newChanWalker(e *chanEngine, n *FuncNode) *chanWalker {
	w := &chanWalker{
		eng:        e,
		node:       n,
		info:       n.Pkg.Info,
		fset:       n.Pkg.Fset,
		tracked:    make(map[*types.Var]bool),
		selectComm: make(map[ast.Node]bool),
	}
	// Track every local channel variable the body mentions, nested
	// literals included, unless its address is taken.
	addrTaken := make(map[*types.Var]bool)
	ast.Inspect(n.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.Ident:
			if v, ok := w.info.ObjectOf(x).(*types.Var); ok && isChanVar(v) && !v.IsField() && !isPackageLevel(v) {
				w.tracked[v] = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if v, ok := w.info.Uses[id].(*types.Var); ok {
						addrTaken[v] = true
					}
				}
			}
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					markSelectComm(w.selectComm, cc.Comm)
				}
			}
		}
		return true
	})
	for v := range addrTaken {
		delete(w.tracked, v)
	}
	for i, p := range funcParams(n) {
		v, ok := w.info.Defs[p].(*types.Var)
		if !ok {
			continue
		}
		if isChanVar(v) && !addrTaken[v] {
			w.tracked[v] = true
			for len(w.params) <= i {
				w.params = append(w.params, nil)
			}
			w.params[i] = v
		}
	}
	return w
}

func markSelectComm(set map[ast.Node]bool, comm ast.Stmt) {
	switch c := comm.(type) {
	case *ast.SendStmt:
		set[c] = true
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(c.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			set[u] = true
		}
	case *ast.AssignStmt:
		if len(c.Rhs) == 1 {
			if u, ok := ast.Unparen(c.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				set[u] = true
			}
		}
	}
}

func isChanVar(v *types.Var) bool {
	_, ok := v.Type().Underlying().(*types.Chan)
	return ok
}

// isBuiltinName reports whether e is a use of the predeclared builtin with
// the given name (go/types records builtins in Uses as *types.Builtin).
func isBuiltinName(info *types.Info, e ast.Expr, name string) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func (w *chanWalker) run() {
	if len(w.tracked) == 0 {
		return // no graph needed: nothing to track
	}
	w.fg = w.eng.ipa.flowGraph(w.node)
	blocks := w.fg.blocks
	w.in = make([]chanEnv, len(blocks))
	entry := make(chanEnv)
	for _, p := range w.params {
		if p != nil {
			entry[p] = unknownChan()
		}
	}
	w.in[w.fg.entry.index] = entry

	// Fixpoint: joins accumulate monotonically in a finite lattice.
	work := []*block{w.fg.entry}
	queued := map[*block]bool{w.fg.entry: true}
	for iter := 0; len(work) > 0 && iter < 64*len(blocks)+256; iter++ {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		out := w.transferBlock(blk, w.in[blk.index].clone())
		for _, e := range blk.succs {
			next := out.clone()
			if e.cond != nil {
				w.applyCond(next, e.cond, e.sense)
			}
			old := w.in[e.to.index]
			var before chanEnv
			if old != nil {
				before = old.clone()
			}
			joined := joinEnvInto(old, next)
			w.in[e.to.index] = joined
			if before == nil || !envEqual(joined, before) {
				if !queued[e.to] {
					queued[e.to] = true
					work = append(work, e.to)
				}
			}
		}
	}

	// One reporting pass over the stable states.
	w.reporting = true
	for _, blk := range blocks {
		if w.in[blk.index] == nil {
			continue // unreachable
		}
		w.transferBlock(blk, w.in[blk.index].clone())
	}
	w.reporting = false
}

func (w *chanWalker) transferBlock(blk *block, env chanEnv) chanEnv {
	if env == nil {
		env = make(chanEnv)
	}
	for i, node := range blk.nodes {
		w.transferNode(blk, i, node, env)
	}
	return env
}

func (w *chanWalker) get(env chanEnv, v *types.Var) chanAbs {
	if st, ok := env[v]; ok {
		return st
	}
	return unknownChan()
}

func (w *chanWalker) transferNode(blk *block, idx int, node ast.Node, env chanEnv) {
	switch x := node.(type) {
	case *ast.AssignStmt:
		for _, rhs := range x.Rhs {
			w.evalExpr(env, rhs)
		}
		for i, lhs := range x.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			v := w.lhsVar(id)
			if v == nil || !w.tracked[v] {
				continue
			}
			if len(x.Rhs) == len(x.Lhs) {
				env[v] = w.abstractOf(env, x.Rhs[i])
			} else {
				env[v] = unknownChan()
			}
		}
	case *ast.DeclStmt:
		gd, ok := x.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, val := range vs.Values {
				w.evalExpr(env, val)
			}
			for i, name := range vs.Names {
				v, _ := w.info.Defs[name].(*types.Var)
				if v == nil || !w.tracked[v] {
					continue
				}
				if len(vs.Values) == 0 {
					env[v] = chanAbs{bits: chNil} // zero value
				} else if len(vs.Values) == len(vs.Names) {
					env[v] = w.abstractOf(env, vs.Values[i])
				} else {
					env[v] = unknownChan()
				}
			}
		}
	case *ast.SendStmt:
		w.evalExpr(env, x.Value)
		w.evalExpr(env, x.Chan)
		if v := w.chanOperand(x.Chan); v != nil && !w.selectComm[x] {
			w.sendEffect(env, v, x.Arrow)
		}
	case *ast.DeferStmt:
		w.deferEffect(env, x)
	case *ast.GoStmt:
		w.orphanCheck(blk, idx, x, env)
		w.widenIdentsIn(env, x.Call)
	case *ast.RangeStmt:
		w.evalExpr(env, x.X)
		if v := w.chanOperand(x.X); v != nil {
			w.recvEffect(env, v, x.X.Pos(), "range over")
		}
	case *ast.ExprStmt:
		w.evalExpr(env, x.X)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			w.evalExpr(env, r)
		}
	case *ast.IncDecStmt:
		w.evalExpr(env, x.X)
	case ast.Expr:
		w.evalExpr(env, x)
	default:
		// Remaining statement forms (empty, labeled leftovers) carry no
		// channel effects beyond their nested expressions.
		ast.Inspect(node, func(sub ast.Node) bool {
			if e, ok := sub.(ast.Expr); ok {
				w.evalExpr(env, e)
				return false
			}
			return true
		})
	}
}

// lhsVar resolves an assignment target ident to its variable (Defs for :=,
// Uses for =).
func (w *chanWalker) lhsVar(id *ast.Ident) *types.Var {
	if v, ok := w.info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := w.info.Uses[id].(*types.Var)
	return v
}

// chanOperand resolves an expression to a tracked channel variable, or nil.
func (w *chanWalker) chanOperand(e ast.Expr) *types.Var {
	if v := w.identVar(e); w.tracked[v] {
		return v
	}
	return nil
}

// abstractOf evaluates the abstract channel value of an assignment RHS.
func (w *chanWalker) abstractOf(env chanEnv, e ast.Expr) chanAbs {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.CallExpr:
		if isBuiltinName(w.info, x.Fun, "make") {
			buf := bufNone
			if len(x.Args) >= 2 {
				buf = bufUnknown
				if n, exact := constIntValue(w.info, x.Args[1]); exact {
					if n == 0 {
						buf = bufNone
					} else {
						buf = bufSome
					}
				}
			}
			return chanAbs{bits: chOpen, buf: buf}
		}
	case *ast.Ident:
		if x.Name == "nil" && w.info.Uses[x] == nil && w.info.Defs[x] == nil {
			return chanAbs{bits: chNil}
		}
		if v, ok := w.info.Uses[x].(*types.Var); ok && w.tracked[v] {
			return w.get(env, v)
		}
	}
	if tv, ok := w.info.Types[e]; ok && tv.IsNil() {
		return chanAbs{bits: chNil}
	}
	return unknownChan()
}

// evalExpr applies the channel effects of evaluating an expression:
// receives, closes, calls with known channel-parameter effects, escapes.
func (w *chanWalker) evalExpr(env chanEnv, e ast.Expr) {
	if e == nil {
		return
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			w.evalExpr(env, x.X)
			if v := w.chanOperand(x.X); v != nil && !w.selectComm[x] {
				w.recvEffect(env, v, x.OpPos, "receive from")
			}
			return
		}
		w.evalExpr(env, x.X)
	case *ast.CallExpr:
		w.evalCall(env, x)
	case *ast.FuncLit:
		// The literal may run at any later point (or concurrently): every
		// captured tracked channel leaves the lattice.
		w.widenIdentsIn(env, x)
	case *ast.BinaryExpr:
		w.evalExpr(env, x.X)
		w.evalExpr(env, x.Y)
	case *ast.CompositeLit:
		// A channel stored into a composite escapes.
		for _, el := range x.Elts {
			w.evalExpr(env, el)
		}
		w.widenIdentsIn(env, x)
	case *ast.IndexExpr:
		w.evalExpr(env, x.X)
		w.evalExpr(env, x.Index)
	case *ast.SliceExpr:
		w.evalExpr(env, x.X)
		w.evalExpr(env, x.Low)
		w.evalExpr(env, x.High)
		w.evalExpr(env, x.Max)
	case *ast.SelectorExpr:
		w.evalExpr(env, x.X)
	case *ast.StarExpr:
		w.evalExpr(env, x.X)
	case *ast.TypeAssertExpr:
		w.evalExpr(env, x.X)
	case *ast.KeyValueExpr:
		w.evalExpr(env, x.Value)
	}
}

func (w *chanWalker) evalCall(env chanEnv, call *ast.CallExpr) {
	for _, arg := range call.Args {
		w.evalExpr(env, arg)
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, isB := w.info.Uses[id].(*types.Builtin); isB {
			if b.Name() == "close" && len(call.Args) == 1 {
				if v := w.chanOperand(call.Args[0]); v != nil {
					w.closeEffect(env, v, call.Pos())
				}
			}
			return // no other builtin has a channel-state effect beyond evaluated args
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		w.evalExpr(env, sel.X)
	}
	fn := calleeFunc(w.info, call)
	effects := w.calleeEffects(fn)
	for i, arg := range call.Args {
		v := w.chanOperand(arg)
		if v == nil {
			continue
		}
		if effects == nil {
			// Unknown callee: the channel escapes the lattice.
			env[v] = unknownChan()
			continue
		}
		eff := effects.params[i]
		st := w.get(env, v)
		if eff == nil {
			continue // callee provably leaves this parameter alone
		}
		name := calleeName(fn)
		if eff.mustClose || eff.mayClose {
			if st.mustClosed {
				w.reportOnce(call.Pos(), "close of already-closed channel %s: %s closes its argument, but it was closed at %s", v.Name(), name, w.loc(st.closedAt))
			} else if st.mayClosed {
				w.reportOnce(call.Pos(), "possible close of closed channel %s: %s closes its argument, and %s was closed at %s on a path reaching this call", v.Name(), name, v.Name(), w.loc(st.closedAt))
			}
		}
		if eff.maySend && st.mustClosed {
			w.reportOnce(call.Pos(), "send on closed channel: %s sends on %s, which was closed at %s", name, v.Name(), w.loc(st.closedAt))
		}
		next := st
		if eff.mustClose {
			next.bits = chClosed
			next.mustClosed = true
			next.mayClosed = true
			if !next.closedAt.IsValid() {
				next.closedAt = call.Pos()
			}
		} else if eff.mayClose {
			next.bits |= chClosed
			next.mayClosed = true
			if !next.closedAt.IsValid() {
				next.closedAt = call.Pos()
			}
		}
		env[v] = next
	}
}

// calleeEffects resolves a callee's channel-parameter effects through the
// engine (computed on demand, in whichever analyzed package declares it).
// nil means unknown — widen.
func (w *chanWalker) calleeEffects(fn *types.Func) *chanEffects {
	if fn == nil {
		return nil
	}
	if node := w.eng.ipa.Graph.NodeFor(fn); node != nil {
		return w.eng.effectsFor(node)
	}
	if fn.Pkg() != nil && fn.Pkg().Path() == w.node.Pkg.Path {
		return nil
	}
	// Outside the analyzed set (stdlib, export-data deps): assume no
	// close/send effects on channel args — stdlib APIs do not close caller
	// channels (closing is the sender's job, and these analyses would
	// otherwise go dark at every time.After or append call).
	return &chanEffects{params: map[int]*paramChanEffect{}}
}

func calleeName(fn *types.Func) string {
	if fn == nil {
		return "the callee"
	}
	return shortFuncName(fn)
}

// widenIdentsIn drops every tracked variable referenced inside e to
// unknown: it escaped to code the lattice cannot see.
func (w *chanWalker) widenIdentsIn(env chanEnv, e ast.Node) {
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := w.info.Uses[id].(*types.Var); ok && w.tracked[v] {
				env[v] = unknownChan()
			}
		}
		return true
	})
}

func (w *chanWalker) reportOnce(pos token.Pos, format string, args ...any) {
	if w.reporting {
		w.eng.add(w.node.Pkg, pos, format, args...)
	}
}

func (w *chanWalker) loc(pos token.Pos) string {
	if !pos.IsValid() {
		return "?"
	}
	return shortLoc(w.fset, pos)
}

func (w *chanWalker) closeEffect(env chanEnv, v *types.Var, pos token.Pos) {
	st := w.get(env, v)
	switch {
	case st.mustClosed:
		w.reportOnce(pos, "close of already-closed channel %s (closed at %s)", v.Name(), w.loc(st.closedAt))
	case st.mayClosed:
		w.reportOnce(pos, "possible close of closed channel %s: closed at %s on a path reaching this close", v.Name(), w.loc(st.closedAt))
	case st.deferClose:
		w.reportOnce(pos, "close of channel %s: the deferred close at %s will close it a second time at return", v.Name(), w.loc(st.deferAt))
	case st.bits == chNil:
		w.reportOnce(pos, "close of nil channel %s (panics)", v.Name())
	}
	st.bits = chClosed
	st.mustClosed = true
	st.mayClosed = true
	st.closedAt = pos
	env[v] = st
}

func (w *chanWalker) deferEffect(env chanEnv, d *ast.DeferStmt) {
	call := d.Call
	for _, arg := range call.Args {
		w.evalExpr(env, arg)
	}
	if isBuiltinName(w.info, call.Fun, "close") && len(call.Args) == 1 {
		if v := w.chanOperand(call.Args[0]); v != nil {
			st := w.get(env, v)
			switch {
			case st.mustClosed:
				w.reportOnce(d.Pos(), "deferred close of channel %s already closed at %s (panics at return)", v.Name(), w.loc(st.closedAt))
			case st.deferClose:
				w.reportOnce(d.Pos(), "duplicate deferred close of channel %s (first deferred at %s)", v.Name(), w.loc(st.deferAt))
			case st.bits == chNil:
				w.reportOnce(d.Pos(), "deferred close of nil channel %s (panics at return)", v.Name())
			}
			st.deferClose = true
			st.deferAt = d.Pos()
			env[v] = st
			return
		}
	}
	// Any other deferred call: apply callee close effects as "may" (the
	// defer does run, but after everything else), then widen the args so
	// later ops in this function stay silent rather than wrong.
	w.widenIdentsIn(env, call)
}

func (w *chanWalker) sendEffect(env chanEnv, v *types.Var, pos token.Pos) {
	st := w.get(env, v)
	switch {
	case st.mustClosed:
		w.reportOnce(pos, "send on channel %s after close at %s (panics)", v.Name(), w.loc(st.closedAt))
	case st.mayClosed:
		w.reportOnce(pos, "send on channel %s: closed at %s on a path reaching this send (send on closed channel panics)", v.Name(), w.loc(st.closedAt))
	case st.bits == chNil:
		w.reportOnce(pos, "send on nil channel %s blocks forever", v.Name())
	case st.bits&chNil != 0 && st.bits != chAll:
		w.reportOnce(pos, "send on channel %s: nil on a path reaching this send (a nil-channel send blocks forever)", v.Name())
	}
}

func (w *chanWalker) recvEffect(env chanEnv, v *types.Var, pos token.Pos, verb string) {
	st := w.get(env, v)
	switch {
	case st.bits == chNil:
		w.reportOnce(pos, "%s nil channel %s blocks forever", verb, v.Name())
	case st.bits&chNil != 0 && st.bits != chAll:
		w.reportOnce(pos, "%s channel %s: nil on a path reaching this receive (a nil-channel receive blocks forever)", verb, v.Name())
	}
}

// applyCond refines the environment along a branch edge using the
// condition's nil comparisons — the branch-condition facts of the IR.
func (w *chanWalker) applyCond(env chanEnv, cond ast.Expr, sense bool) {
	switch x := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			w.applyCond(env, x.X, !sense)
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if sense {
				w.applyCond(env, x.X, true)
				w.applyCond(env, x.Y, true)
			}
		case token.LOR:
			if !sense {
				w.applyCond(env, x.X, false)
				w.applyCond(env, x.Y, false)
			}
		case token.EQL, token.NEQ:
			v, other := w.nilComparison(x)
			if v == nil {
				return
			}
			isNil := (x.Op == token.EQL) == sense
			_ = other
			st := w.get(env, v)
			if isNil {
				st.bits = chNil
				st.mustClosed = false
				st.mayClosed = false
			} else {
				st.bits &^= chNil
				if st.bits == 0 {
					st.bits = chOpen | chClosed
				}
			}
			env[v] = st
		}
	}
}

// nilComparison matches `ch == nil` / `ch != nil` (either operand order)
// against a tracked variable.
func (w *chanWalker) nilComparison(x *ast.BinaryExpr) (*types.Var, ast.Expr) {
	isNilExpr := func(e ast.Expr) bool {
		tv, ok := w.info.Types[e]
		return ok && tv.IsNil()
	}
	if v := w.chanOperand(x.X); v != nil && isNilExpr(x.Y) {
		return v, x.Y
	}
	if v := w.chanOperand(x.Y); v != nil && isNilExpr(x.X) {
		return v, x.X
	}
	return nil, nil
}

// summarizeEffects derives the channel-parameter effects from the
// exit-state of the analysis: mustClose when every modeled path closed the
// parameter, mayClose when some did (or a close is deferred), maySend from
// a syntactic scan (select sends count — they may fire).
func (w *chanWalker) summarizeEffects() *chanEffects {
	eff := &chanEffects{params: make(map[int]*paramChanEffect)}
	if len(w.params) == 0 {
		return eff
	}
	var exit chanEnv
	if w.in != nil {
		exit = w.in[w.fg.exit.index]
	}
	for i, p := range w.params {
		if p == nil {
			continue
		}
		pe := &paramChanEffect{}
		if exit != nil {
			st := w.get(exit, p)
			pe.mustClose = st.mustClosed || st.deferClose
			pe.mayClose = st.mayClosed || st.deferClose
		}
		pe.maySend = anyNode(w.node.Body, false, func(node ast.Node) bool {
			s, ok := node.(*ast.SendStmt)
			return ok && w.identVar(s.Chan) == p
		})
		if pe.mustClose || pe.mayClose || pe.maySend {
			eff.params[i] = pe
		}
	}
	return eff
}

// --- Orphaned unbuffered sends ---------------------------------------------

// orphanCheck fires when a goroutine literal bare-sends on an unbuffered
// channel the spawner created, the channel escapes nowhere else, and the
// spawner can reach return without receiving from it: the send then blocks
// forever and the goroutine leaks. This is the spawner-side, path-sensitive
// refinement of goleak: goleak asks "can the spawned body block", this asks
// "does the spawner guarantee the rendezvous".
func (w *chanWalker) orphanCheck(blk *block, idx int, g *ast.GoStmt, env chanEnv) {
	if !w.reporting {
		return
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	for v := range w.tracked {
		st := w.get(env, v)
		if st.bits != chOpen || st.buf != bufNone {
			continue // not provably an open unbuffered channel here
		}
		if !w.litBareSendsOn(lit, v) {
			continue
		}
		if w.escapesBeyond(v, lit) {
			continue // another consumer may receive; stay silent
		}
		if !w.canReachExitWithoutRecv(blk, idx+1, v) {
			continue
		}
		w.reportOnce(g.Pos(), "goroutine sends on unbuffered channel %s with no receive on some path to return: the send blocks forever and leaks the goroutine (buffer the channel or receive on every path)", v.Name())
	}
}

// litBareSendsOn reports whether the literal's body contains a bare
// (non-select) send on v, outside nested literals. The literal is nested in
// the walker's body, so its select comms are already in selectComm.
func (w *chanWalker) litBareSendsOn(lit *ast.FuncLit, v *types.Var) bool {
	return anyNode(lit.Body, true, func(n ast.Node) bool {
		s, ok := n.(*ast.SendStmt)
		return ok && !w.selectComm[s] && w.identVar(s.Chan) == v
	})
}

// identVar resolves e to the variable it names when it is a bare
// identifier, or nil.
func (w *chanWalker) identVar(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, _ := w.info.Uses[id].(*types.Var)
	return v
}

// escapesBeyond reports whether v is referenced anywhere the analysis
// cannot account for: another function literal, a call argument, a
// composite literal, a return value, or the right-hand side of an
// assignment to a different variable.
func (w *chanWalker) escapesBeyond(v *types.Var, spawnLit *ast.FuncLit) bool {
	escaped := false
	var visit func(n ast.Node, inSpawn bool)
	visit = func(n ast.Node, inSpawn bool) {
		if n == nil || escaped {
			return
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			if x == spawnLit {
				// Inside the spawned goroutine any use is fine: it is the
				// producer under analysis.
				return
			}
			if usesVar(w.info, x, v, false) {
				escaped = true
			}
			return
		case *ast.CallExpr:
			// close(v), len(v), cap(v) are fine; v as an argument to
			// anything else hands the receive obligation to unknown code.
			if isBuiltinName(w.info, x.Fun, "close") || isBuiltinName(w.info, x.Fun, "len") || isBuiltinName(w.info, x.Fun, "cap") {
				break
			}
			for _, arg := range x.Args {
				if usesVar(w.info, arg, v, true) {
					escaped = true
					return
				}
			}
		case *ast.ReturnStmt:
			for _, r := range x.Results {
				if usesVar(w.info, r, v, true) {
					escaped = true
					return
				}
			}
		case *ast.CompositeLit:
			if usesVar(w.info, x, v, false) {
				escaped = true
				return
			}
		case *ast.AssignStmt:
			for i, rhs := range x.Rhs {
				if !usesVar(w.info, rhs, v, true) {
					continue
				}
				// v on the RHS aliases it into another name unless this is
				// the defining make / self-assignment.
				if len(x.Lhs) == len(x.Rhs) {
					if id, ok := ast.Unparen(x.Lhs[i]).(*ast.Ident); ok {
						if lv := w.lhsVar(id); lv == v {
							continue
						}
					}
				}
				escaped = true
				return
			}
		}
		ast.Inspect(n, func(sub ast.Node) bool {
			if sub == n {
				return true
			}
			visit(sub, inSpawn)
			return false
		})
	}
	visit(w.node.Body, false)
	return escaped
}

// usesVar reports whether n mentions v; with skipLits, mentions inside
// nested literals (classified separately) do not count.
func usesVar(info *types.Info, n ast.Node, v *types.Var, skipLits bool) bool {
	return anyNode(n, skipLits, func(sub ast.Node) bool {
		id, ok := sub.(*ast.Ident)
		return ok && info.Uses[id] == types.Object(v)
	})
}

// canReachExitWithoutRecv reports whether some path from just after the
// spawn point reaches the exit block without passing a receive on v. A
// block containing a receive (bare, comma-ok, select comm, or range) is a
// barrier: every path through it receives.
func (w *chanWalker) canReachExitWithoutRecv(start *block, fromIdx int, v *types.Var) bool {
	if w.hasRecv(start.nodes[fromIdx:], v) {
		return false
	}
	recv := func(b *block) bool { return w.hasRecv(b.nodes, v) }
	exit := func(b *block) bool { return b == w.fg.exit }
	for _, e := range start.succs {
		if w.fg.reaches(e.to, exit, nil, recv) {
			return true
		}
	}
	return false
}

// hasRecv reports whether nodes receive from v, outside nested literals.
func (w *chanWalker) hasRecv(nodes []ast.Node, v *types.Var) bool {
	recv := func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.UnaryExpr:
			return x.Op == token.ARROW && w.identVar(x.X) == v
		case *ast.RangeStmt:
			return w.identVar(x.X) == v
		}
		return false
	}
	for _, n := range nodes {
		if anyNode(n, true, recv) {
			return true
		}
	}
	return false
}
