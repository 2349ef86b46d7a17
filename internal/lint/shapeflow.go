package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// Shapeflow propagates abstract tensor shapes forward through function
// bodies and package-level initializers (domain in dataflow.go) and checks
// operator contracts wherever enough is known statically: MatMul inner
// dimensions, Reshape element counts, elementwise-op shape agreement,
// AddRowVector widths. It follows values through assignments, constructor
// results, Reshape/Transpose/Clone chains, and calls to other analyzed
// functions — in this package or any it imports — whose shape-transfer
// summaries are derivable.
//
// The same walk checks the literal arguments of the numerics constructors,
// where a mismatch is an error or panic on a path that may only run once a
// specific inference branch is hit:
//
//   - tensor.FromSlice / tensor.MustFromSlice with a literal data slice and
//     constant dims: the dim product must equal the literal length;
//   - tensor constructors and Reshape: constant dims must be non-negative;
//   - Reshape of a constant-dim constructor result with constant new dims:
//     the element counts must agree;
//   - nn.NewBatchNorm with constant width and groups: width must divide
//     evenly into groups, the constructor's panic condition.
var Shapeflow = &Analyzer{
	Name: "shapeflow",
	Doc:  "tensor shapes, literal or derived by dataflow, must satisfy constructor and operator contracts",
	Run:  runShapeflow,
}

func runShapeflow(pass *Pass) {
	eng := pass.IPA().shapeEngine()
	for _, n := range pass.Nodes() {
		eng.analyze(n)
	}
	// Each package-level var declaration is walked once, from an empty
	// state.
	w := newShapeWalker(eng, pass.pkg, nil)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				w.decl(&ast.DeclStmt{Decl: gd}, newShapeEnv())
			}
		}
	}
	eng.report(pass)
}

// shapeEngine owns the shapeflow state: memoized transfer summaries per
// function node and the deduplicated findings buffer. A transfer summary is
// the abstract shape of the function's first tensor result, in terms of
// its own parameters (symIntParam, symTensorDim); callers instantiate it
// against their arguments.
type shapeEngine struct {
	findingSet
	ipa       *IPA
	transfers map[*FuncNode]*ashape
	state     map[*FuncNode]int // 0 unvisited, 1 in progress, 2 done
}

func (ipa *IPA) shapeEngine() *shapeEngine {
	if ipa.shape == nil {
		ipa.shape = &shapeEngine{
			ipa:       ipa,
			transfers: make(map[*FuncNode]*ashape),
			state:     make(map[*FuncNode]int),
		}
	}
	return ipa.shape
}

// analyze runs the dataflow over one declared function exactly once,
// buffering findings and recording its transfer summary.
func (e *shapeEngine) analyze(n *FuncNode) {
	if n == nil || n.Fn == nil || e.state[n] != 0 {
		return
	}
	e.state[n] = 1
	w := newShapeWalker(e, n.Pkg, n)
	env := w.paramEnv()
	w.walkStmts(n.Body.List, env)
	e.transfers[n] = w.summarize()
	e.state[n] = 2
}

// transferFor returns a declared function's shape-transfer summary (nil when
// none is derivable), analyzing on first use. Recursive cycles get nil.
func (e *shapeEngine) transferFor(n *FuncNode) *ashape {
	if n == nil || n.Fn == nil || e.state[n] == 1 {
		return nil
	}
	e.analyze(n)
	return e.transfers[n]
}

// shapeWalker runs the forward dataflow over one function body, or over
// package-level initializers when n is nil.
type shapeWalker struct {
	eng *shapeEngine
	pkg *Package
	n   *FuncNode

	tensorParams map[*types.Var]int // tensor-typed parameters -> flat index
	retIdx       int                // result index being summarized, -1 when none
	rets         []ashape           // abstract shape at each return site
	naked        bool               // a return the walker could not attribute
}

func newShapeWalker(e *shapeEngine, pkg *Package, n *FuncNode) *shapeWalker {
	return &shapeWalker{eng: e, pkg: pkg, n: n, tensorParams: make(map[*types.Var]int), retIdx: -1}
}

// paramEnv seeds the entry state: integer parameters become their own
// symbols, tensor parameters are remembered so Dim() calls on them resolve
// symbolically, and the first tensor result is marked for summarization.
func (w *shapeWalker) paramEnv() *shapeEnv {
	env := newShapeEnv()
	sig := w.n.Fn.Type().(*types.Signature)
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		p := params.At(i)
		switch {
		case isIntKind(p.Type()):
			env.ints[p] = symDim(symID{kind: symIntParam, arg: i})
		case isTensorPtr(p.Type()):
			w.tensorParams[p] = i
		}
	}
	results := sig.Results()
	for i := 0; i < results.Len(); i++ {
		if isTensorPtr(results.At(i).Type()) {
			w.retIdx = i
			break
		}
	}
	return env
}

// --- statement walk ---------------------------------------------------------

func (w *shapeWalker) walkStmts(list []ast.Stmt, env *shapeEnv) *shapeEnv {
	for _, s := range list {
		env = w.walkStmt(s, env)
	}
	return env
}

func (w *shapeWalker) walkStmt(s ast.Stmt, env *shapeEnv) *shapeEnv {
	switch s := s.(type) {
	case *ast.AssignStmt:
		w.assign(s, env)
	case *ast.DeclStmt:
		w.decl(s, env)
	case *ast.ExprStmt:
		w.evalExpr(s.X, env)
	case *ast.ReturnStmt:
		w.ret(s, env)
	case *ast.IncDecStmt:
		w.evalExpr(s.X, env)
		w.invalidateExpr(s.X, env)
	case *ast.IfStmt:
		if s.Init != nil {
			env = w.walkStmt(s.Init, env)
		}
		w.evalExpr(s.Cond, env)
		thenEnv := w.walkStmts(s.Body.List, env.clone())
		elseEnv := env.clone()
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			elseEnv = w.walkStmts(e.List, elseEnv)
		case *ast.IfStmt:
			elseEnv = w.walkStmt(e, elseEnv)
		}
		thenEnv.joinInto(elseEnv)
		return thenEnv
	case *ast.BlockStmt:
		env = w.walkStmts(s.List, env)
	case *ast.ForStmt, *ast.RangeStmt:
		w.loop(s, env)
	case *ast.SwitchStmt:
		if s.Init != nil {
			env = w.walkStmt(s.Init, env)
		}
		w.evalExpr(s.Tag, env)
		w.caseBodies(s.Body, env)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			env = w.walkStmt(s.Init, env)
		}
		w.walkStmt(s.Assign, env)
		w.caseBodies(s.Body, env)
	case *ast.SelectStmt:
		w.caseBodies(s.Body, env)
	case *ast.DeferStmt:
		w.evalExpr(s.Call, env)
	case *ast.GoStmt:
		w.evalExpr(s.Call, env)
	case *ast.SendStmt:
		w.evalExpr(s.Chan, env)
		w.evalExpr(s.Value, env)
	case *ast.LabeledStmt:
		env = w.walkStmt(s.Stmt, env)
	}
	return env
}

// loop models a loop as one abstract iteration with every loop-written
// variable widened to unknown first: the bounded fixpoint. Facts that
// survive the widening hold on all iterations, so checks inside the body
// fire only on iteration-invariant evidence.
func (w *shapeWalker) loop(s ast.Stmt, env *shapeEnv) {
	w.invalidateAssigned(s, env)
	inner := env.clone()
	switch s := s.(type) {
	case *ast.ForStmt:
		if s.Init != nil {
			inner = w.walkStmt(s.Init, inner)
		}
		// Init bindings the body or post rewrites are not invariant.
		w.invalidateAssigned(s.Body, inner)
		if s.Post != nil {
			w.invalidateAssigned(s.Post, inner)
		}
		w.evalExpr(s.Cond, inner)
		w.walkStmts(s.Body.List, inner)
		if s.Post != nil {
			w.walkStmt(s.Post, inner)
		}
	case *ast.RangeStmt:
		w.evalExpr(s.X, inner)
		w.evalExpr(s.Key, inner)
		w.evalExpr(s.Value, inner)
		w.invalidateExpr(s.Key, inner)
		w.invalidateExpr(s.Value, inner)
		w.invalidateAssigned(s.Body, inner)
		w.walkStmts(s.Body.List, inner)
	}
}

// caseBodies walks each clause against a copy of the pre-switch state, then
// widens anything any clause wrote.
func (w *shapeWalker) caseBodies(body *ast.BlockStmt, env *shapeEnv) {
	for _, c := range body.List {
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.evalExpr(e, env)
			}
			w.walkStmts(c.Body, env.clone())
		case *ast.CommClause:
			inner := env.clone()
			if c.Comm != nil {
				inner = w.walkStmt(c.Comm, inner)
			}
			w.walkStmts(c.Body, inner)
		}
	}
	w.invalidateAssigned(body, env)
}

func (w *shapeWalker) ret(s *ast.ReturnStmt, env *shapeEnv) {
	for _, r := range s.Results {
		w.evalExpr(r, env)
	}
	if w.retIdx < 0 {
		return
	}
	if len(s.Results) == 0 || len(s.Results) <= w.retIdx && w.retIdx > 0 {
		w.naked = true
		return
	}
	if len(s.Results) <= w.retIdx {
		// A single forwarded call: its first result is the tensor.
		w.rets = append(w.rets, w.evalShape(s.Results[0], env))
		return
	}
	w.rets = append(w.rets, w.evalShape(s.Results[w.retIdx], env))
}

// assign evaluates every rhs against the pre-state, invalidates the targets,
// then installs the new bindings (so `x = x.MustReshape(...)` and swap
// assignments read the old values).
func (w *shapeWalker) assign(s *ast.AssignStmt, env *shapeEnv) {
	type binding struct {
		v     *types.Var
		shape ashape
		ival  adim
	}
	var binds []binding
	record := func(l ast.Expr, shape ashape, ival adim) {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if v := objVar(w.pkg.Info, id); v != nil {
			binds = append(binds, binding{v, shape, ival})
		}
	}
	track := s.Tok == token.ASSIGN || s.Tok == token.DEFINE

	switch {
	case len(s.Lhs) == len(s.Rhs):
		for i, r := range s.Rhs {
			w.evalExpr(r, env)
			if track {
				sh, iv := w.evalValue(r, env)
				record(s.Lhs[i], sh, iv)
			}
		}
	case len(s.Rhs) == 1:
		r := s.Rhs[0]
		w.evalExpr(r, env)
		// Multi-value: `y, err := MatMul(a, b)` binds the first result when
		// it is the tensor.
		if track {
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
				if sh := w.evalShape(call, env); sh.known && firstResultIsTensor(w.pkg.Info, call) {
					record(s.Lhs[0], sh, topDim())
				}
			}
		}
	}
	for _, l := range s.Lhs {
		w.evalExpr(l, env)
		w.invalidateExpr(l, env)
	}
	for _, b := range binds {
		if b.shape.known {
			env.shapes[b.v] = b.shape
		}
		if b.ival.kind != dimTop {
			env.ints[b.v] = b.ival
		}
	}
}

func (w *shapeWalker) decl(s *ast.DeclStmt, env *shapeEnv) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			w.evalExpr(v, env)
		}
		if len(vs.Names) != len(vs.Values) {
			continue
		}
		for i, name := range vs.Names {
			if name.Name == "_" {
				continue
			}
			v := objVar(w.pkg.Info, name)
			if v == nil {
				continue
			}
			sh, iv := w.evalValue(vs.Values[i], env)
			if sh.known {
				env.shapes[v] = sh
			}
			if iv.kind != dimTop {
				env.ints[v] = iv
			}
		}
	}
}

// evalValue computes the abstract value of an expression according to its
// static type: a shape for tensors, an abstract int for integers.
func (w *shapeWalker) evalValue(e ast.Expr, env *shapeEnv) (ashape, adim) {
	tv, ok := w.pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return unknownShape(), topDim()
	}
	switch {
	case isTensorPtr(tv.Type):
		return w.evalShape(e, env), topDim()
	case isIntKind(tv.Type):
		return unknownShape(), w.evalInt(e, env)
	}
	return unknownShape(), topDim()
}

// evalExpr descends one expression, running the operator checks on every
// call it contains and walking function-literal bodies with a fresh state.
func (w *shapeWalker) evalExpr(e ast.Expr, env *shapeEnv) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			newShapeWalker(w.eng, w.pkg, w.n).walkStmts(x.Body.List, newShapeEnv())
			return false
		case *ast.CallExpr:
			w.evalShape(x, env) // side effect: operator checks (deduped)
		}
		return true
	})
}

// invalidateAssigned drops every variable the statement may write — the
// widening applied to loop and switch bodies.
func (w *shapeWalker) invalidateAssigned(s ast.Node, env *shapeEnv) {
	ast.Inspect(s, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.AssignStmt:
			for _, l := range x.Lhs {
				w.invalidateExpr(l, env)
			}
		case *ast.IncDecStmt:
			w.invalidateExpr(x.X, env)
		case *ast.RangeStmt:
			w.invalidateExpr(x.Key, env)
			w.invalidateExpr(x.Value, env)
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				w.invalidateExpr(x.X, env)
			}
		}
		return true
	})
}

func (w *shapeWalker) invalidateExpr(e ast.Expr, env *shapeEnv) {
	if e == nil {
		return
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if v := objVar(w.pkg.Info, id); v != nil {
			delete(env.ints, v)
			delete(env.shapes, v)
		}
	}
}

// --- expression evaluation --------------------------------------------------

// evalInt computes an expression's abstract integer value.
func (w *shapeWalker) evalInt(e ast.Expr, env *shapeEnv) adim {
	e = ast.Unparen(e)
	if v, ok := constIntValue(w.pkg.Info, e); ok {
		return constDim(v)
	}
	switch x := e.(type) {
	case *ast.Ident:
		if v := objVar(w.pkg.Info, x); v != nil {
			if d, ok := env.ints[v]; ok {
				return d
			}
		}
	case *ast.BinaryExpr:
		a, b := w.evalInt(x.X, env), w.evalInt(x.Y, env)
		if a.kind == dimConst && b.kind == dimConst {
			switch x.Op {
			case token.ADD:
				return constDim(a.val + b.val)
			case token.SUB:
				return constDim(a.val - b.val)
			case token.MUL:
				return constDim(a.val * b.val)
			}
		}
	case *ast.CallExpr:
		fn := calleeFunc(w.pkg.Info, x)
		switch {
		case isTensorMethod(fn, "Dim") && len(x.Args) == 1:
			k, ok := constIntValue(w.pkg.Info, x.Args[0])
			if !ok || k < 0 {
				break
			}
			recv := methodRecv(x, fn)
			if sh := w.evalShape(recv, env); sh.known && int(k) < len(sh.dims) {
				return sh.dims[k]
			}
			if p := w.paramTensor(recv); p >= 0 {
				return symDim(symID{kind: symTensorDim, arg: p, dim: int(k)})
			}
		case isTensorMethod(fn, "Size"):
			if cd, ok := w.evalShape(methodRecv(x, fn), env).constDims(); ok {
				size := int64(1)
				for _, d := range cd {
					size *= d
				}
				return constDim(size)
			}
		case isTensorMethod(fn, "Dims"):
			if sh := w.evalShape(methodRecv(x, fn), env); sh.known {
				return constDim(int64(len(sh.dims)))
			}
		}
	}
	return topDim()
}

// evalShape computes an expression's abstract tensor shape.
func (w *shapeWalker) evalShape(e ast.Expr, env *shapeEnv) ashape {
	if e == nil {
		return unknownShape()
	}
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		if v := objVar(w.pkg.Info, x); v != nil {
			if s, ok := env.shapes[v]; ok {
				return s
			}
		}
	case *ast.CallExpr:
		return w.evalCall(x, env)
	}
	return unknownShape()
}

func (w *shapeWalker) evalCall(call *ast.CallExpr, env *shapeEnv) ashape {
	fn := calleeFunc(w.pkg.Info, call)
	if fn == nil {
		return unknownShape()
	}
	if isTensorPkgFunc(fn) {
		return w.tensorOp(call, fn, env)
	}
	if fn.Name() == "NewBatchNorm" && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/nn") {
		w.checkBatchNorm(call)
	}
	if ts := w.lookupTransfer(fn); ts != nil {
		return w.instantiate(ts, call, env)
	}
	return unknownShape()
}

// lookupTransfer resolves an analyzed callee's shape-transfer summary,
// analyzing it on demand.
func (w *shapeWalker) lookupTransfer(fn *types.Func) *ashape {
	return w.eng.transferFor(w.eng.ipa.Graph.NodeFor(fn))
}

// instantiate evaluates a callee's transfer summary against the call's
// actual arguments.
func (w *shapeWalker) instantiate(ts *ashape, call *ast.CallExpr, env *shapeEnv) ashape {
	if call.Ellipsis.IsValid() {
		return unknownShape()
	}
	dims := make([]adim, len(ts.dims))
	for i, d := range ts.dims {
		dims[i] = w.instantiateDim(d, call, env)
	}
	return knownShape(dims)
}

func (w *shapeWalker) instantiateDim(d adim, call *ast.CallExpr, env *shapeEnv) adim {
	switch {
	case d.kind == dimConst:
		return d
	case d.kind != dimSym || d.sym.arg >= len(call.Args):
		return topDim()
	case d.sym.kind == symIntParam:
		return w.evalInt(call.Args[d.sym.arg], env)
	}
	arg := call.Args[d.sym.arg]
	if s := w.evalShape(arg, env); s.known && d.sym.dim < len(s.dims) {
		return s.dims[d.sym.dim]
	}
	if p := w.paramTensor(arg); p >= 0 {
		return symDim(symID{kind: symTensorDim, arg: p, dim: d.sym.dim})
	}
	return topDim()
}

// --- tensor operator transfers and checks -----------------------------------

// tensorOp models one call into the tensor package: it returns the result
// shape and reports contract violations the abstract state proves.
func (w *shapeWalker) tensorOp(call *ast.CallExpr, fn *types.Func, env *shapeEnv) ashape {
	name := fn.Name()
	recv := func() ashape { return w.evalShape(methodRecv(call, fn), env) }
	arg := func(i int) ashape {
		if i < len(call.Args) {
			return w.evalShape(call.Args[i], env)
		}
		return unknownShape()
	}
	switch name {
	case "New", "Full", "Randn", "Uniform", "FromSlice", "MustFromSlice":
		start := dimArgStart[name]
		if call.Ellipsis.IsValid() || len(call.Args) <= start {
			return unknownShape()
		}
		w.checkCtor(call, name, call.Args[start:])
		return w.dimsShape(call.Args[start:], env)
	case "MatMul", "MustMatMul":
		return w.matmul(call, env, name, 1, 0, 0, 1)
	case "MatMulTransA":
		return w.matmul(call, env, name, 0, 0, 1, 1)
	case "MatMulTransB":
		return w.matmul(call, env, name, 1, 1, 0, 0)
	case "MatMulInto":
		if len(call.Args) == 3 {
			w.require2D(call.Pos(), "tensor.MatMulInto", arg(0), arg(1), arg(2))
			w.checkInner(call.Pos(), "tensor.MatMulInto", arg(1), 1, arg(2), 0)
		}
		return unknownShape()
	case "Transpose":
		s := arg(0)
		w.require2D(call.Pos(), "tensor.Transpose", s)
		if s.known && len(s.dims) == 2 {
			return knownShape([]adim{s.dims[1], s.dims[0]})
		}
		return unknownShape()
	case "Add", "Sub", "Mul":
		if len(call.Args) == 2 {
			sa, sb := arg(0), arg(1)
			w.checkSameShape(call.Pos(), "tensor."+name, sa, sb)
			if sa.known {
				return sa
			}
			return sb
		}
	case "Scale":
		return arg(0)
	case "Clone", "Apply", "ScaleInPlace":
		return recv()
	case "AddInPlace", "SubInPlace", "MulInPlace", "AddScaledInPlace", "CopyFrom":
		r := recv()
		if len(call.Args) >= 1 {
			w.checkSameShape(call.Pos(), "tensor.(*Tensor)."+name, r, arg(0))
		}
		return r
	case "Reshape", "MustReshape":
		return w.reshape(call, env, name, recv())
	case "AddRowVector":
		w.checkRowVector(call, env, recv())
		return unknownShape() // returns error, not a tensor
	case "SumRows":
		r := recv()
		w.require2D(call.Pos(), "tensor.(*Tensor).SumRows", r)
		if r.known && len(r.dims) == 2 {
			return knownShape([]adim{r.dims[1]})
		}
		return unknownShape()
	}
	return unknownShape()
}

// matmul checks one matrix product and returns its result shape: the inner
// dims (innerA of the left operand, innerB of the right) must agree, and the
// result is [left[outA], right[outB]].
func (w *shapeWalker) matmul(call *ast.CallExpr, env *shapeEnv, name string, innerA, innerB, outA, outB int) ashape {
	if len(call.Args) != 2 {
		return unknownShape()
	}
	sa := w.evalShape(call.Args[0], env)
	sb := w.evalShape(call.Args[1], env)
	w.require2D(call.Pos(), "tensor."+name, sa, sb)
	if !sa.known || !sb.known || len(sa.dims) != 2 || len(sb.dims) != 2 {
		return unknownShape()
	}
	w.checkInner(call.Pos(), "tensor."+name, sa, innerA, sb, innerB)
	return knownShape([]adim{sa.dims[outA], sb.dims[outB]})
}

// checkInner reports a proven inner-dimension disagreement.
func (w *shapeWalker) checkInner(pos token.Pos, op string, sa ashape, ia int, sb ashape, ib int) {
	if !sa.known || !sb.known || ia >= len(sa.dims) || ib >= len(sb.dims) {
		return
	}
	da, db := sa.dims[ia], sb.dims[ib]
	if da.kind == dimConst && db.kind == dimConst && da.val != db.val {
		w.eng.add(w.pkg, pos, "%s inner dimensions disagree: %d vs %d (fails at run time)", op, da.val, db.val)
	}
}

// checkSameShape reports elementwise operands proven to have different
// fully-concrete shapes.
func (w *shapeWalker) checkSameShape(pos token.Pos, op string, a, b ashape) {
	da, ok1 := a.constDims()
	db, ok2 := b.constDims()
	if !ok1 || !ok2 {
		return
	}
	if len(da) != len(db) {
		w.eng.add(w.pkg, pos, "%s operands have different shapes: %v vs %v (fails at run time)", op, da, db)
		return
	}
	for i := range da {
		if da[i] != db[i] {
			w.eng.add(w.pkg, pos, "%s operands have different shapes: %v vs %v (fails at run time)", op, da, db)
			return
		}
	}
}

// require2D reports operands whose rank is known and not 2.
func (w *shapeWalker) require2D(pos token.Pos, op string, shapes ...ashape) {
	for _, s := range shapes {
		if s.known && len(s.dims) != 2 {
			w.eng.add(w.pkg, pos, "%s requires 2-D operands but this one is %d-D (fails at run time)", op, len(s.dims))
		}
	}
}

// reshape checks Reshape/MustReshape and returns the new shape. A negative
// dim is reported once per kind: the first literal constant (always fails)
// and the first value dataflow proves negative. A constant-constructor
// receiver with constant new dims is checked syntactically; any other
// receiver against the dataflow state.
func (w *shapeWalker) reshape(call *ast.CallExpr, env *shapeEnv, name string, recv ashape) ashape {
	if call.Ellipsis.IsValid() || len(call.Args) == 0 {
		return unknownShape()
	}
	dims := w.dimsShape(call.Args, env)
	allSyntactic, syntacticNeg, flowNeg := true, false, false
	for i, a := range call.Args {
		if v, syntactic := constIntValue(w.pkg.Info, a); syntactic {
			if v < 0 && !syntacticNeg {
				w.eng.add(w.pkg, a.Pos(), "tensor.%s dimension %d is negative (always fails)", name, v)
				syntacticNeg = true
			}
			continue
		}
		allSyntactic = false
		if d := dims.dims[i]; d.kind == dimConst && d.val < 0 && !flowNeg {
			w.eng.add(w.pkg, a.Pos(), "tensor.%s dimension %d is negative (fails at run time)", name, d.val)
			flowNeg = true
		}
	}
	if flowNeg {
		return dims
	}
	nd, ok := dims.constDims()
	if !ok {
		return dims
	}
	got := int64(1)
	for _, d := range nd {
		got *= d
	}
	if allSyntactic {
		if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			if size, ctor := syntacticCtorSize(w.pkg.Info, sel.X); ctor {
				if !syntacticNeg && got != size {
					w.eng.add(w.pkg, call.Pos(), "tensor.%s: new dims multiply to %d but the tensor has %d elements", name, got, size)
				}
				return dims
			}
		}
	}
	rd, ok := recv.constDims()
	if !ok {
		return dims
	}
	want := int64(1)
	for _, d := range rd {
		want *= d
	}
	if want != got {
		w.eng.add(w.pkg, call.Pos(), "tensor.%s: new dims multiply to %d but the tensor has %d elements (fails at run time)", name, got, want)
	}
	return dims
}

// checkCtor checks a tensor constructor's literal dims: each constant must
// be non-negative, and FromSlice/MustFromSlice's constant dims must
// multiply to the length of a literal data slice.
func (w *shapeWalker) checkCtor(call *ast.CallExpr, name string, dims []ast.Expr) {
	product := 1
	allConst := true
	for _, d := range dims {
		v, known := constIntValue(w.pkg.Info, d)
		if !known {
			allConst = false
			continue
		}
		if v < 0 {
			w.eng.add(w.pkg, d.Pos(), "tensor.%s dimension %d is negative (constructor panics)", name, v)
			return
		}
		product *= int(v)
	}
	if name != "FromSlice" && name != "MustFromSlice" || !allConst {
		return
	}
	if length, ok := literalLen(call.Args[0]); ok && product != length {
		w.eng.add(w.pkg, call.Pos(), "tensor.%s: dims multiply to %d but the data literal has %d elements", name, product, length)
	}
}

// checkBatchNorm checks nn.NewBatchNorm's constant width and groups.
func (w *shapeWalker) checkBatchNorm(call *ast.CallExpr) {
	if len(call.Args) != 3 {
		return
	}
	width, okW := constIntValue(w.pkg.Info, call.Args[1])
	groups, okG := constIntValue(w.pkg.Info, call.Args[2])
	if okW && okG && (width <= 0 || groups <= 0 || width%groups != 0) {
		w.eng.add(w.pkg, call.Pos(), "nn.NewBatchNorm: width %d is not divisible into %d groups (constructor panics)", width, groups)
	}
}

// checkRowVector verifies AddRowVector: the vector's element count must
// equal the receiver's column count.
func (w *shapeWalker) checkRowVector(call *ast.CallExpr, env *shapeEnv, recv ashape) {
	w.require2D(call.Pos(), "tensor.(*Tensor).AddRowVector", recv)
	if !recv.known || len(recv.dims) != 2 || len(call.Args) != 1 {
		return
	}
	cols := recv.dims[1]
	vd, ok := w.evalShape(call.Args[0], env).constDims()
	if !ok || cols.kind != dimConst {
		return
	}
	size := int64(1)
	for _, d := range vd {
		size *= d
	}
	if size != cols.val {
		w.eng.add(w.pkg, call.Pos(), "tensor.(*Tensor).AddRowVector: vector has %d elements but the tensor has %d columns (fails at run time)", size, cols.val)
	}
}

// dimsShape evaluates a variadic dim list into a known-rank shape.
func (w *shapeWalker) dimsShape(args []ast.Expr, env *shapeEnv) ashape {
	dims := make([]adim, len(args))
	for i, a := range args {
		dims[i] = w.evalInt(a, env)
	}
	return knownShape(dims)
}

// summarize joins the return-site shapes into the function's transfer
// summary, or nil when nothing rank-stable is derivable.
func (w *shapeWalker) summarize() *ashape {
	if w.retIdx < 0 || w.naked || len(w.rets) == 0 {
		return nil
	}
	s := w.rets[0]
	for _, r := range w.rets[1:] {
		s = joinShape(s, r)
	}
	if !s.known {
		return nil
	}
	return &s
}

// paramTensor resolves an expression to a tensor parameter's flat index, or
// -1.
func (w *shapeWalker) paramTensor(e ast.Expr) int {
	if e == nil {
		return -1
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if v := objVar(w.pkg.Info, id); v != nil {
			if i, ok := w.tensorParams[v]; ok {
				return i
			}
		}
	}
	return -1
}

// --- shared helpers ---------------------------------------------------------

// dimArgStart maps tensor constructors to the argument index where the
// variadic shape begins.
var dimArgStart = map[string]int{
	"New":           0,
	"FromSlice":     1,
	"MustFromSlice": 1,
	"Full":          1,
	"Randn":         2,
	"Uniform":       3,
}

// syntacticCtorSize computes the element count of a tensor built directly by
// a constructor call with constant dims — a Reshape receiver checkable
// without dataflow.
func syntacticCtorSize(info *types.Info, e ast.Expr) (int64, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || call.Ellipsis.IsValid() {
		return 0, false
	}
	fn := calleeFunc(info, call)
	if !isTensorPkgFunc(fn) {
		return 0, false
	}
	start, ok := dimArgStart[fn.Name()]
	if !ok || len(call.Args) <= start {
		return 0, false
	}
	size := int64(1)
	for _, d := range call.Args[start:] {
		v, known := constIntValue(info, d)
		if !known || v < 0 {
			return 0, false
		}
		size *= v
	}
	return size, true
}

// methodRecv returns the receiver expression of a method call, or nil for
// package-level functions.
func methodRecv(call *ast.CallExpr, fn *types.Func) ast.Expr {
	if fn == nil || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// firstResultIsTensor reports whether a call's first result is *tensor.Tensor.
func firstResultIsTensor(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return false
	}
	results := fn.Type().(*types.Signature).Results()
	return results.Len() > 0 && isTensorPtr(results.At(0).Type())
}

// isTensorPkgFunc reports whether fn is declared in the tensor package (the
// real one or a fixture standing in for it).
func isTensorPkgFunc(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/tensor")
}

func isTensorMethod(fn *types.Func, name string) bool {
	return isTensorPkgFunc(fn) && fn.Name() == name && fn.Type().(*types.Signature).Recv() != nil
}

// isTensorPtr reports whether t is *tensor.Tensor.
func isTensorPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Tensor" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/tensor")
}

func isIntKind(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func constIntValue(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// literalLen counts the elements of a plain (unkeyed) composite literal.
func literalLen(e ast.Expr) (int, bool) {
	lit, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return 0, false
	}
	for _, el := range lit.Elts {
		if _, keyed := el.(*ast.KeyValueExpr); keyed {
			return 0, false
		}
	}
	return len(lit.Elts), true
}

// objVar resolves an identifier to its variable object.
func objVar(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}
