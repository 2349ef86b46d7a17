package lint

import (
	"go/ast"
)

// Ctxprop enforces context propagation through the blocking layers of the
// pipeline: a function that takes a context.Context and transitively
// reaches a blocking operation (channel op, select, lock acquisition,
// time.Sleep, sync Wait — per the interprocedural summaries) must actually
// use that context — pass it down, select on Done, check Err — not drop it
// on the floor. It also reports a function that has a context in hand yet
// manufactures context.Background()/TODO() for a callee, severing
// cancellation exactly where it matters (the dropped-context shape around
// Engine.ClassifyCtx call sites).
//
// A non-blocking function with an unused context parameter (an interface
// implementation, a future-proofed signature) is deliberately not a
// finding.
var Ctxprop = &Analyzer{
	Name: "ctxprop",
	Doc:  "a context-taking function that reaches blocking calls must thread its context onward",
	Run:  runCtxprop,
}

func runCtxprop(pass *Pass) {
	for _, n := range pass.Nodes() {
		if n.Decl == nil {
			continue // literals capture their encloser's context
		}
		s := n.Summary()
		if len(s.CtxParams) == 0 {
			continue
		}
		if s.Blocks && !s.UsesCtx {
			pass.Reportf(s.CtxParams[0].Pos(), "%s drops its context parameter %s but reaches blocking operations; thread the context down or select on its Done channel", n.Name, s.CtxParams[0].Name())
		}
		reportManufacturedContexts(pass, n)
	}
}

// reportManufacturedContexts flags context.Background()/context.TODO()
// arguments inside a function that already has a context parameter.
func reportManufacturedContexts(pass *Pass, n *FuncNode) {
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			inner, ok := ast.Unparen(arg).(*ast.CallExpr)
			if !ok {
				continue
			}
			fn := calleeFunc(pass.TypesInfo, inner)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
				continue
			}
			if fn.Name() != "Background" && fn.Name() != "TODO" {
				continue
			}
			callee := "a callee"
			if cf := calleeFunc(pass.TypesInfo, call); cf != nil {
				callee = cf.Name()
			}
			pass.Reportf(arg.Pos(), "%s has a context parameter but passes context.%s to %s, severing cancellation", n.Name, fn.Name(), callee)
		}
		return true
	})
}
