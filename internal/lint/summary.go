package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// This file computes bottom-up function summaries over the call graph: a
// small monotone lattice of facts per function (may block, may block
// forever, allocation sites, locks acquired, context usage) propagated to a
// fixpoint, plus the held-lock walk (locksafe.go), which derives
// lock-acquisition-order pairs and lock leaks once transitive acquire sets
// are stable. The whole-program analyzers are thin views over these
// summaries.

// IPA is the interprocedural analysis state of one run: a call graph and a
// summary per function node over every analyzed package, shared by the
// whole-program analyzers through Pass.IPA. AnalyzeModule builds one over
// the whole module; Run builds the one-package case.
type IPA struct {
	Graph *CallGraph

	// pkgs are the analyzed packages in dependency order. deps maps each
	// to the analyzed packages it imports, directly or transitively: the
	// only packages whose facts its findings may use.
	pkgs []*Package
	deps map[*Package][]*Package

	// shape is the lazily-built shapeflow engine (shapeflow.go).
	shape *shapeEngine

	// flows memoizes per-function flow graphs (cfg.go), the IR every
	// flow-sensitive analyzer shares.
	flows map[*FuncNode]*flowGraph

	// chans is the lazily-built chanlife engine (chanlife.go); atoms the
	// atomic/plain access census (atomicmix.go); allocs memoizes
	// exportedAllocs.
	chans  *chanEngine
	atoms  *atomicCensus
	allocs map[*FuncNode][]Site
}

// buildIPA links pkgs, which must be in dependency order. Imports are
// acyclic, so the summary fixpoint is solved one package at a time,
// bottom-up: every cross-package callee's facts are final before any of its
// callers read them.
func buildIPA(pkgs []*Package) *IPA {
	g := buildCallGraph(pkgs)
	for _, pkg := range pkgs {
		nodes := g.NodesOf(pkg)
		for _, n := range nodes {
			n.summary = gatherFacts(n)
		}
		propagate(nodes)
		for _, n := range nodes {
			computeLocks(g, n)
		}
	}
	return &IPA{
		Graph:  g,
		pkgs:   pkgs,
		deps:   importClosure(pkgs),
		flows:  make(map[*FuncNode]*flowGraph),
		allocs: make(map[*FuncNode][]Site),
	}
}

// importClosure maps each package to the analyzed packages it imports,
// directly or transitively, in dependency order. pkgs is in dependency
// order, so an import's closure is complete before its importers read it.
func importClosure(pkgs []*Package) map[*Package][]*Package {
	byTypes := make(map[*types.Package]*Package, len(pkgs))
	for _, p := range pkgs {
		byTypes[p.Types] = p
	}
	sets := make(map[*Package]map[*Package]bool, len(pkgs))
	deps := make(map[*Package][]*Package, len(pkgs))
	for _, p := range pkgs {
		set := make(map[*Package]bool)
		for _, imp := range p.Types.Imports() {
			if q := byTypes[imp]; q != nil {
				set[q] = true
				for r := range sets[q] {
					set[r] = true
				}
			}
		}
		sets[p] = set
		for _, q := range pkgs {
			if set[q] {
				deps[p] = append(deps[p], q)
			}
		}
	}
	return deps
}

// findingSet buffers an engine's diagnostics under the package that owns
// the function they were found in, deduplicated by value: a site checked
// along several evaluation paths reports once. Its zero value is ready.
type findingSet struct {
	byPkg map[*Package][]finding
	seen  map[finding]bool
}

type finding struct {
	pos token.Pos
	msg string
}

func (fs *findingSet) add(pkg *Package, pos token.Pos, format string, args ...any) {
	f := finding{pos, fmt.Sprintf(format, args...)}
	if fs.seen[f] {
		return
	}
	if fs.seen == nil {
		fs.seen = make(map[finding]bool)
		fs.byPkg = make(map[*Package][]finding)
	}
	fs.seen[f] = true
	fs.byPkg[pkg] = append(fs.byPkg[pkg], f)
}

// report emits the buffered findings of the package under analysis.
func (fs *findingSet) report(pass *Pass) {
	for _, f := range fs.byPkg[pass.pkg] {
		pass.Reportf(f.pos, "%s", f.msg)
	}
}

// allocSites returns n's allocation sites as its own package sees them: its
// own sites, plus one "call into" site per call to another package's
// function that allocates, anchored at the call.
func (ipa *IPA) allocSites(n *FuncNode) []Site {
	sites := slices.Clip(n.summary.AllocSites)
	for _, c := range n.Calls {
		if c.Callee.Pkg == n.Pkg {
			continue
		}
		sub := ipa.exportedAllocs(c.Callee)
		if len(sub) == 0 {
			continue
		}
		what := "call into " + shortFuncName(c.Callee.Fn) + " (" + sub[0].What + " at " + shortLoc(c.Callee.Pkg.Fset, sub[0].Pos)
		if len(sub) > 1 {
			what += fmt.Sprintf(", +%d more allocation sites", len(sub)-1)
		}
		sites = append(sites, Site{c.Pos, what + ")"})
	}
	return sites
}

// exportedAllocs returns the allocation sites a caller in another package
// reaches through n: allocSites of n and of every same-package function it
// can reach (call, defer, and reference edges, as hotalloc walks them),
// minus the sites a //lint:ignore hotalloc in n's package justifies — so a
// dependency's documented exception does not resurface in its callers.
func (ipa *IPA) exportedAllocs(n *FuncNode) []Site {
	if out, ok := ipa.allocs[n]; ok {
		return out
	}
	var out []Site
	seen := map[*FuncNode]bool{n: true}
	queue := []*FuncNode{n}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, site := range ipa.allocSites(cur) {
			if !n.Pkg.justified(site.Pos, "hotalloc") {
				out = append(out, site)
			}
		}
		for _, c := range cur.Calls {
			if c.Callee.Pkg == n.Pkg && !seen[c.Callee] {
				seen[c.Callee] = true
				queue = append(queue, c.Callee)
			}
		}
	}
	ipa.allocs[n] = out
	return out
}

// Summary returns the node's computed summary.
func (n *FuncNode) Summary() *Summary { return n.summary }

// Site is one fact-bearing source location ("channel receive", "make", ...).
type Site struct {
	Pos  token.Pos
	What string
}

// Summary is the per-function fact lattice. The Sites slices hold the
// function's own facts; the booleans and Acquires/Pairs fold in callees.
type Summary struct {
	// ForeverSites are operations that can block this goroutine forever
	// with no cancellation or close path: bare channel sends, receives
	// without a comma-ok, single-case selects, select{}, sync.Cond.Wait,
	// sync.WaitGroup.Wait.
	ForeverSites []Site
	// BlockSites are operations that can block at all (superset intent:
	// also lock acquisition, selects without default, range over a
	// channel, time.Sleep).
	BlockSites []Site
	// AllocSites are this function's own heap-allocating constructs, the
	// currency of the hotalloc analyzer.
	AllocSites []Site
	// Acquires maps the lock identities this function or any callee it
	// reaches acquires to the first acquisition position.
	Acquires map[string]token.Pos
	// Pairs records lock-order edges: key[0] was held while key[1] was
	// acquired (directly or inside a callee) at the recorded position.
	Pairs map[[2]string]token.Pos
	// LockLeaks are the returns and acquisitions where a lock can outlive
	// the function: locksafe's findings, with the message in What. Pairs
	// and LockLeaks both come from the held-lock walk (locksafe.go).
	LockLeaks []Site

	// BlocksForever / Blocks are the transitive closures of the site
	// lists. ForeverWhat/ForeverPos describe a representative ultimate
	// site for reporting; ForeverVia is the direct callee the fact arrived
	// through (nil when the site is the function's own).
	BlocksForever bool
	ForeverWhat   string
	ForeverPos    token.Pos
	ForeverVia    *FuncNode
	Blocks        bool

	// CtxParams are the function's named context.Context parameters;
	// UsesCtx reports whether any of them is referenced in the body
	// (including by nested literals).
	CtxParams []*types.Var
	UsesCtx   bool
}

// gatherFacts collects a node's own facts with one syntactic walk. Nested
// function literals are separate nodes and are skipped, except that the
// literal expression itself is an allocation in the encloser.
func gatherFacts(n *FuncNode) *Summary {
	pkg := n.Pkg
	s := newSummary()
	exempt := collectChanExemptions(n.Body)
	addressed := make(map[*ast.CompositeLit]bool)
	ast.Inspect(n.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			if x != n.Lit {
				s.AllocSites = append(s.AllocSites, Site{x.Pos(), "closure"})
				return false
			}
		case *ast.GoStmt:
			// The spawned goroutine's facts belong to its own node; the
			// spawn itself allocates.
			s.AllocSites = append(s.AllocSites, Site{x.Pos(), "goroutine spawn"})
			for _, arg := range x.Call.Args {
				gatherExprFacts(pkg, s, exempt, arg)
			}
			return false
		case *ast.SelectStmt:
			gatherSelectFacts(s, x)
		case *ast.SendStmt:
			if !exempt[node] {
				s.ForeverSites = append(s.ForeverSites, Site{x.Pos(), "channel send"})
				s.BlockSites = append(s.BlockSites, Site{x.Pos(), "channel send"})
			}
		case *ast.UnaryExpr:
			switch x.Op {
			case token.ARROW:
				if exempt[node] {
					s.BlockSites = append(s.BlockSites, Site{x.Pos(), "channel receive"})
				} else {
					s.ForeverSites = append(s.ForeverSites, Site{x.Pos(), "channel receive"})
					s.BlockSites = append(s.BlockSites, Site{x.Pos(), "channel receive"})
				}
			case token.AND:
				if cl, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					addressed[cl] = true
					s.AllocSites = append(s.AllocSites, Site{x.Pos(), "composite literal allocation"})
				}
			}
		case *ast.CompositeLit:
			if addressed[x] {
				break
			}
			if tv, ok := pkg.Info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					s.AllocSites = append(s.AllocSites, Site{x.Pos(), "slice literal"})
				case *types.Map:
					s.AllocSites = append(s.AllocSites, Site{x.Pos(), "map literal"})
				}
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					// Terminates when the channel closes: a close path, so
					// blocking but not forever-blocking.
					s.BlockSites = append(s.BlockSites, Site{x.Pos(), "range over channel"})
				}
			}
		case *ast.CallExpr:
			gatherCallFacts(pkg, s, x)
		}
		return true
	})
	gatherCtxFacts(pkg, n, s)
	return s
}

func newSummary() *Summary {
	return &Summary{
		Acquires: make(map[string]token.Pos),
		Pairs:    make(map[[2]string]token.Pos),
	}
}

// gatherExprFacts records channel/call facts inside one expression (used for
// spawn arguments, which are evaluated by the spawner).
func gatherExprFacts(pkg *Package, s *Summary, exempt map[ast.Node]bool, expr ast.Expr) {
	ast.Inspect(expr, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			s.AllocSites = append(s.AllocSites, Site{x.Pos(), "closure"})
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !exempt[node] {
				s.ForeverSites = append(s.ForeverSites, Site{x.Pos(), "channel receive"})
				s.BlockSites = append(s.BlockSites, Site{x.Pos(), "channel receive"})
			}
		case *ast.CallExpr:
			gatherCallFacts(pkg, s, x)
		}
		return true
	})
}

// gatherSelectFacts classifies a select statement. Its comm clauses were
// exempted from the generic send/receive rules by collectChanExemptions.
func gatherSelectFacts(s *Summary, sel *ast.SelectStmt) {
	cases, hasDefault := 0, false
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok {
			if cc.Comm == nil {
				hasDefault = true
			} else {
				cases++
			}
		}
	}
	switch {
	case cases == 0 && !hasDefault:
		s.ForeverSites = append(s.ForeverSites, Site{sel.Pos(), "select{}"})
		s.BlockSites = append(s.BlockSites, Site{sel.Pos(), "select{}"})
	case hasDefault:
		// Never blocks.
	case cases == 1:
		s.ForeverSites = append(s.ForeverSites, Site{sel.Pos(), "single-case select"})
		s.BlockSites = append(s.BlockSites, Site{sel.Pos(), "single-case select"})
	default:
		// Two or more ways to wake: the conventional shape of a
		// cancellable wait (one case is a stop/ctx.Done channel). Blocking
		// but not treated as forever-blocking.
		s.BlockSites = append(s.BlockSites, Site{sel.Pos(), "select"})
	}
}

// collectChanExemptions pre-computes the channel operations that have an
// escape path and must not count as forever-blocking: comm clauses of any
// select (the select statement is classified as a whole) and comma-ok
// receives (which observe close).
func collectChanExemptions(body *ast.BlockStmt) map[ast.Node]bool {
	exempt := make(map[ast.Node]bool)
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			for _, c := range x.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
					markSelectComm(exempt, cc.Comm)
				}
			}
		case *ast.AssignStmt:
			if len(x.Lhs) == 2 && len(x.Rhs) == 1 {
				if u, ok := ast.Unparen(x.Rhs[0]).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					exempt[u] = true
				}
			}
		}
		return true
	})
	return exempt
}

// gatherCallFacts classifies one call expression: lock operations, known
// external blockers, and allocation sites (make/new, fmt, conversions that
// copy, interface boxing, variadic argument slices).
func gatherCallFacts(pkg *Package, s *Summary, call *ast.CallExpr) {
	// Builtins and conversions first: they have no *types.Func callee.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				s.AllocSites = append(s.AllocSites, Site{call.Pos(), "make"})
			case "new":
				s.AllocSites = append(s.AllocSites, Site{call.Pos(), "new"})
			}
			return
		}
	}
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			s.AllocSites = append(s.AllocSites, Site{call.Pos(), "conversion to slice"})
		case *types.Basic:
			if tv.Type.Underlying().(*types.Basic).Info()&types.IsString != 0 {
				if argTV, ok := pkg.Info.Types[call.Args[0]]; ok && !isStringType(argTV.Type) {
					s.AllocSites = append(s.AllocSites, Site{call.Pos(), "conversion to string"})
				}
			}
		}
		return
	}

	if lock, kind, ok := mutexOp(pkg.Info, call); ok {
		// Releases matter to the held-lock walk, not the summary sets.
		if kind == mutexAcquire {
			id := lockIdentity(pkg.Info, lock)
			if _, seen := s.Acquires[id]; !seen {
				s.Acquires[id] = call.Pos()
			}
			s.BlockSites = append(s.BlockSites, Site{call.Pos(), "lock acquisition"})
		}
		return
	}

	fn := calleeFunc(pkg.Info, call)
	if fn != nil && fn.Pkg() != nil {
		switch pkgPath, name := fn.Pkg().Path(), fn.Name(); {
		case pkgPath == "time" && name == "Sleep":
			s.BlockSites = append(s.BlockSites, Site{call.Pos(), "time.Sleep"})
		case pkgPath == "sync" && name == "Wait":
			// WaitGroup.Wait and Cond.Wait both hang forever when the
			// wake-up side is lost.
			s.ForeverSites = append(s.ForeverSites, Site{call.Pos(), "sync " + recvTypeName(fn) + ".Wait"})
			s.BlockSites = append(s.BlockSites, Site{call.Pos(), "sync " + recvTypeName(fn) + ".Wait"})
		case pkgPath == "fmt":
			s.AllocSites = append(s.AllocSites, Site{call.Pos(), "fmt." + name + " call"})
		}
	}
	gatherBoxingFacts(pkg, s, call, fn)
}

// gatherBoxingFacts flags interface boxing and variadic slices at a call
// site: a concrete, non-pointer-shaped argument passed to an interface
// parameter heap-allocates its box, and packing variadic arguments
// allocates the backing slice.
func gatherBoxingFacts(pkg *Package, s *Summary, call *ast.CallExpr, fn *types.Func) {
	if fn == nil || fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		return // fmt calls are already reported wholesale
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	if sig.Variadic() && len(call.Args) >= params.Len() && !hasEllipsis(call) {
		if len(call.Args) > params.Len()-1 {
			s.AllocSites = append(s.AllocSites, Site{call.Pos(), "variadic argument slice"})
		}
		// Fixed params still box below.
	}
	for i, arg := range call.Args {
		if i >= params.Len() {
			break
		}
		pt := params.At(i).Type()
		if sig.Variadic() && i == params.Len()-1 {
			break
		}
		if !types.IsInterface(pt) {
			continue
		}
		at, ok := pkg.Info.Types[arg]
		if !ok || at.Type == nil {
			continue
		}
		if types.IsInterface(at.Type) || at.IsNil() {
			continue
		}
		if pointerShaped(at.Type) {
			continue
		}
		s.AllocSites = append(s.AllocSites, Site{arg.Pos(), "interface boxing of " + at.Type.String()})
	}
}

func hasEllipsis(call *ast.CallExpr) bool { return call.Ellipsis.IsValid() }

// pointerShaped reports whether values of t fit an interface word without a
// heap allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// gatherCtxFacts records the function's context.Context parameters and
// whether the body (including nested literals, which capture them) uses any.
func gatherCtxFacts(pkg *Package, n *FuncNode, s *Summary) {
	params := funcParams(n)
	for _, p := range params {
		obj, ok := pkg.Info.Defs[p].(*types.Var)
		if !ok || p.Name == "_" || !isContextType(obj.Type()) {
			continue
		}
		s.CtxParams = append(s.CtxParams, obj)
	}
	if len(s.CtxParams) == 0 {
		return
	}
	want := make(map[types.Object]bool, len(s.CtxParams))
	for _, p := range s.CtxParams {
		want[p] = true
	}
	s.UsesCtx = anyNode(n.Body, false, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		return ok && want[pkg.Info.Uses[id]]
	})
}

// funcParams returns the parameter name idents of a node's declaration or
// literal.
func funcParams(n *FuncNode) []*ast.Ident {
	var ft *ast.FuncType
	switch {
	case n.Decl != nil:
		ft = n.Decl.Type
	case n.Lit != nil:
		ft = n.Lit.Type
	}
	if ft == nil || ft.Params == nil {
		return nil
	}
	var out []*ast.Ident
	for _, field := range ft.Params.List {
		out = append(out, field.Names...)
	}
	return out
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// recvTypeName renders a method's receiver type name without package
// qualification ("WaitGroup", "Cond").
func recvTypeName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	recv := sig.Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// mutexOpKind classifies a sync mutex call.
type mutexOpKind int

const (
	mutexAcquire mutexOpKind = iota
	mutexRelease
)

// mutexOp classifies a call as Lock/RLock or Unlock/RUnlock on a sync
// mutex and returns the receiver expression: callers name the lock by its
// text ("c.mu") or its type-level identity (lockIdentity).
func mutexOp(info *types.Info, call *ast.CallExpr) (ast.Expr, mutexOpKind, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, 0, false
	}
	var kind mutexOpKind
	switch fn.Name() {
	case "Lock", "RLock":
		kind = mutexAcquire
	case "Unlock", "RUnlock":
		kind = mutexRelease
	default:
		return nil, 0, false
	}
	return sel.X, kind, true
}

// lockIdentity names a lock at the type level so acquisitions through
// different variables of the same type unify: "Controller.mu" for a field
// on any *Controller receiver or variable, "registryMu" for a package-level
// mutex var, falling back to the expression text.
func lockIdentity(info *types.Info, expr ast.Expr) string {
	var parts []string
	e := ast.Unparen(expr)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			parts = append(parts, "")
			copy(parts[1:], parts)
			parts[0] = x.Sel.Name
			e = ast.Unparen(x.X)
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			root := x.Name
			if v, ok := obj.(*types.Var); ok {
				if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
					root = v.Name() // package-level var: identity is the var itself
				} else if name := namedTypeName(v.Type()); name != "" {
					root = name
				}
			}
			return root + suffixPath(parts)
		default:
			return types.ExprString(expr)
		}
	}
}

func suffixPath(parts []string) string {
	if len(parts) == 0 {
		return ""
	}
	return "." + strings.Join(parts, ".")
}

// namedTypeName returns the named type of t (through one pointer), or "".
func namedTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// shortLoc renders a position as "file.go:42".
func shortLoc(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", shortPath(p.Filename), p.Line)
}

// propagate folds callee facts into callers until the lattice stabilizes.
// The lattice is finite (booleans plus bounded lock sets), every transfer is
// monotone, and each pass visits nodes in deterministic order, so the loop
// terminates with deterministic results.
func propagate(nodes []*FuncNode) {
	for changed := true; changed; {
		changed = false
		for _, n := range nodes {
			s := n.summary
			for _, site := range s.ForeverSites {
				// A //lint:ignore goleak at the site documents why it
				// cannot hang, for every goroutine that reaches it.
				if s.BlocksForever || n.Pkg.justified(site.Pos, "goleak") {
					continue
				}
				s.BlocksForever = true
				s.ForeverWhat = site.What
				s.ForeverPos = site.Pos
				changed = true
				break
			}
			if !s.Blocks && len(s.BlockSites) > 0 {
				s.Blocks = true
				changed = true
			}
			for _, c := range n.Calls {
				cs := c.Callee.summary
				// A referenced literal may never run: propagate may-block
				// (conservative for ctxprop) but not forever-blocking
				// (kept precise for goleak).
				if c.Kind != edgeRef && cs.BlocksForever && !s.BlocksForever {
					s.BlocksForever = true
					s.ForeverWhat = cs.ForeverWhat
					s.ForeverPos = cs.ForeverPos
					s.ForeverVia = c.Callee
					changed = true
				}
				if cs.Blocks && !s.Blocks {
					s.Blocks = true
					changed = true
				}
				if c.Kind == edgeRef {
					continue
				}
				for id, pos := range cs.Acquires {
					if _, ok := s.Acquires[id]; !ok {
						s.Acquires[id] = pos
						changed = true
					}
				}
			}
		}
	}
}
