package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
)

// This file builds the call graph the whole-program analyzers share. One
// graph spans every analyzed package: nodes are the declared functions,
// methods, and function literals; edges are call sites, classified by how
// the callee runs (plain call, defer, or a conservative "referenced as a
// value" edge for closures that escape into variables or arguments). `go`
// statements are recorded separately as spawn sites, because a spawned
// goroutine's blocking does not block its spawner.
//
// Resolution is conservative in the direction that keeps the analyzers
// sound for the analyzed set:
//
//   - Static calls resolve through go/types to the callee's node when the
//     callee is declared in any analyzed package. The loader type-checks
//     each package against its dependencies' source-loaded objects, so a
//     cross-package callee is the same *types.Func in both packages.
//   - Method calls through an interface resolve to every method declared in
//     the caller's package with the same name whose receiver implements the
//     interface (the classic class-hierarchy-analysis over-approximation).
//   - Calls through plain function values, and calls into packages outside
//     the analyzed set, are left unresolved; summaries treat unknown
//     callees as neutral rather than inventing facts.

// edgeKind classifies how a call edge transfers control.
type edgeKind int

const (
	edgeCall  edgeKind = iota // plain call expression
	edgeDefer                 // deferred call (runs before return)
	edgeRef                   // function literal referenced as a value; may run later
)

// CallSite is one resolved edge in the call graph.
type CallSite struct {
	Callee *FuncNode
	Pos    token.Pos
	Kind   edgeKind
	// ViaInterface marks edges resolved conservatively through an
	// interface method set rather than a static callee.
	ViaInterface bool
}

// GoSite is one `go` statement. Targets lists the functions the spawned
// goroutine may enter (the literal's node, or the conservatively resolved
// callees); it is empty when the spawned callee is unknown (dynamic call or
// a function outside the analyzed set).
type GoSite struct {
	Pos     token.Pos
	Targets []*FuncNode
}

// FuncNode is one function in the call graph: a declared function or method
// (Decl != nil) or a function literal (Lit != nil).
type FuncNode struct {
	Name string      // display name, e.g. "(*Runner).loop" or "func literal runner.go:46"
	Pkg  *Package    // the package that declares it
	Fn   *types.Func // nil for literals
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt

	Calls   []CallSite
	GoSites []GoSite

	summary *Summary
}

// Hotpath reports whether the function is annotated as a //lint:hotpath
// root (the directive sits in the doc comment of the declaration).
func (n *FuncNode) Hotpath() bool {
	if n.Decl == nil || n.Decl.Doc == nil {
		return false
	}
	for _, c := range n.Decl.Doc.List {
		if commentIsDirective(c.Text, "lint:hotpath") {
			return true
		}
	}
	return false
}

// commentIsDirective reports whether a comment's text is the given //-style
// directive (optionally followed by free text).
func commentIsDirective(text, directive string) bool {
	rest, ok := cutCommentMarker(text)
	if !ok {
		return false
	}
	if rest == directive {
		return true
	}
	return len(rest) > len(directive) && rest[:len(directive)] == directive &&
		(rest[len(directive)] == ' ' || rest[len(directive)] == '\t')
}

func cutCommentMarker(text string) (string, bool) {
	if len(text) >= 2 && text[:2] == "//" {
		return text[2:], true
	}
	return "", false
}

// CallGraph holds the function nodes of every analyzed package, with lookup
// from the type-checker's function objects.
type CallGraph struct {
	// byPkg lists each package's nodes in deterministic source order:
	// declarations across files, then literals in the order walked.
	byPkg map[*Package][]*FuncNode
	byFn  map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// methods indexes each package's declared methods by name for
	// conservative interface resolution within the caller's package.
	methods map[methodKey][]*FuncNode
}

type methodKey struct {
	pkg  *Package
	name string
}

// NodeFor returns the node of a declared function, or nil when it is
// declared outside the analyzed set.
func (g *CallGraph) NodeFor(fn *types.Func) *FuncNode { return g.byFn[fn.Origin()] }

// NodesOf returns one package's nodes.
func (g *CallGraph) NodesOf(pkg *Package) []*FuncNode { return g.byPkg[pkg] }

func buildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		byPkg:   make(map[*Package][]*FuncNode),
		byFn:    make(map[*types.Func]*FuncNode),
		byLit:   make(map[*ast.FuncLit]*FuncNode),
		methods: make(map[methodKey][]*FuncNode),
	}
	// First pass: create nodes for every declared function of every
	// package so edges can resolve forward and cross-package references.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &FuncNode{Name: funcDisplayName(fn), Pkg: pkg, Fn: fn, Decl: fd, Body: fd.Body}
				g.byPkg[pkg] = append(g.byPkg[pkg], n)
				g.byFn[fn] = n
				if fn.Type().(*types.Signature).Recv() != nil {
					key := methodKey{pkg, fn.Name()}
					g.methods[key] = append(g.methods[key], n)
				}
			}
		}
	}
	// Second pass: walk bodies, creating literal nodes and edges.
	for _, pkg := range pkgs {
		for _, n := range append([]*FuncNode(nil), g.byPkg[pkg]...) {
			g.walkBody(n)
		}
	}
	return g
}

// walkBody records n's call sites, go sites, and nested literal nodes. Each
// literal gets its own node (its blocking and locking are its own), and the
// encloser gets an edge to it matching how the literal is used.
func (g *CallGraph) walkBody(n *FuncNode) {
	var walk func(ast.Node) bool
	walk = func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.GoStmt:
			g.addGoSite(n, s)
			// Arguments to the spawned call are evaluated in the spawner.
			for _, arg := range s.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.DeferStmt:
			g.addCallEdges(n, s.Call, edgeDefer)
			for _, arg := range s.Call.Args {
				ast.Inspect(arg, walk)
			}
			return false
		case *ast.CallExpr:
			if lit, ok := ast.Unparen(s.Fun).(*ast.FuncLit); ok {
				child := g.litNode(n, lit)
				n.Calls = append(n.Calls, CallSite{Callee: child, Pos: s.Pos(), Kind: edgeCall})
				for _, arg := range s.Args {
					ast.Inspect(arg, walk)
				}
				return false
			}
			g.addCallEdges(n, s, edgeCall)
			return true
		case *ast.FuncLit:
			// A literal that is not immediately called escapes as a value;
			// assume it may run in the encloser's context.
			child := g.litNode(n, s)
			n.Calls = append(n.Calls, CallSite{Callee: child, Pos: s.Pos(), Kind: edgeRef})
			return false
		}
		return true
	}
	ast.Inspect(n.Body, walk)
}

// litNode creates (and registers) the node for a function literal nested in
// parent, then walks its body.
func (g *CallGraph) litNode(parent *FuncNode, lit *ast.FuncLit) *FuncNode {
	pos := parent.Pkg.Fset.Position(lit.Pos())
	child := &FuncNode{
		Name: fmt.Sprintf("func literal %s:%d", shortPath(pos.Filename), pos.Line),
		Pkg:  parent.Pkg,
		Lit:  lit,
		Body: lit.Body,
	}
	g.byPkg[parent.Pkg] = append(g.byPkg[parent.Pkg], child)
	g.byLit[lit] = child
	g.walkBody(child)
	return child
}

// addGoSite records a `go` statement and resolves its spawn targets.
func (g *CallGraph) addGoSite(n *FuncNode, s *ast.GoStmt) {
	site := GoSite{Pos: s.Pos()}
	if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
		site.Targets = []*FuncNode{g.litNode(n, lit)}
	} else {
		site.Targets, _ = g.resolve(n, s.Call)
	}
	n.GoSites = append(n.GoSites, site)
}

// addCallEdges resolves call and records edges on caller.
func (g *CallGraph) addCallEdges(caller *FuncNode, call *ast.CallExpr, kind edgeKind) {
	targets, viaIface := g.resolve(caller, call)
	for _, t := range targets {
		caller.Calls = append(caller.Calls, CallSite{Callee: t, Pos: call.Pos(), Kind: kind, ViaInterface: viaIface})
	}
}

// resolve returns the analyzed functions a call in caller may invoke.
// Interface method calls resolve to every method declared in the caller's
// package that implements the interface; viaIface reports when that
// over-approximation was used.
func (g *CallGraph) resolve(caller *FuncNode, call *ast.CallExpr) (targets []*FuncNode, viaIface bool) {
	fn := calleeFunc(caller.Pkg.Info, call)
	if fn == nil {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, false
	}
	if recv := sig.Recv(); recv != nil && types.IsInterface(recv.Type()) {
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if !ok {
			return nil, false
		}
		for _, m := range g.methods[methodKey{caller.Pkg, fn.Name()}] {
			mrecv := m.Fn.Type().(*types.Signature).Recv().Type()
			if types.Implements(mrecv, iface) || types.Implements(types.NewPointer(mrecv), iface) {
				targets = append(targets, m)
			}
		}
		return targets, true
	}
	if n := g.NodeFor(fn); n != nil {
		return []*FuncNode{n}, false
	}
	return nil, false
}

// funcDisplayName renders a function object the way findings name it:
// "Name" for package functions, "(T).Name" / "(*T).Name" for methods.
func funcDisplayName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return fmt.Sprintf("(%s).%s", types.TypeString(recv.Type(), func(*types.Package) string { return "" }), fn.Name())
	}
	return fn.Name()
}

// shortFuncName names a function for messages read outside its package:
// "wire.(*Conn).Send".
func shortFuncName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	return path.Base(fn.Pkg().Path()) + "." + funcDisplayName(fn)
}

// shortPath trims a filename to its base for display names.
func shortPath(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}
