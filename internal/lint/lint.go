// Package lint is DarNet's project-specific static-analysis framework. It is
// built entirely on the standard library (go/parser, go/ast, go/types) and
// exists because the middleware layers (collect, tsdb, core) are lock-guarded
// concurrent code and the analytics layers (tensor, nn, rnn, bayes) are
// numerics where silent invariant violations corrupt accuracy instead of
// crashing. Each analyzer encodes one such invariant; the cmd/darnet-lint
// driver runs the full registry over the module as one linked unit
// (AnalyzeModule) and fails on findings.
//
// Findings can be suppressed with an explicit, justified directive on the
// offending line or the line above it:
//
//	//lint:ignore <rule> <reason>
//
// The reason is mandatory; a directive without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one analyzer finding, resolved to a file position.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the finding in the canonical file:line:col: [rule] message
// form the driver prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one static check. Run inspects the package held by the pass and
// reports findings through it.
type Analyzer struct {
	// Name is the rule identifier used in reports and //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the rule enforces.
	Doc string
	// Run executes the check over one type-checked package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	PkgPath   string
	Pkg       *types.Package
	TypesInfo *types.Info

	pkg    *Package
	ipa    *IPA
	rule   string
	report func(Diagnostic)
}

// IPA returns the run's interprocedural analysis engine (call graph plus
// function summaries), shared by the whole-program analyzers.
func (p *Pass) IPA() *IPA { return p.ipa }

// Nodes returns the call-graph nodes of the package under analysis.
func (p *Pass) Nodes() []*FuncNode { return p.ipa.Graph.NodesOf(p.pkg) }

// funcName names a function in a finding: bare inside the package under
// analysis, package-qualified ("mid.Watch") when it lives in another.
func (p *Pass) funcName(n *FuncNode) string {
	if n.Pkg == p.pkg || n.Fn == nil {
		return n.Name
	}
	return shortFuncName(n.Fn)
}

// Reportf records a finding at pos under the running analyzer's rule name.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Rule:    p.rule,
		Message: fmt.Sprintf(format, args...),
	})
}

// IsTestFile reports whether pos lies in a _test.go file.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// InInternal reports whether the package under analysis is an internal/
// package, where the middleware invariants (deterministic RNG, cancellable
// agents) are binding.
func (p *Pass) InInternal() bool {
	return pathHasSegment(p.PkgPath, "internal")
}

// InExamples reports whether the package is example code, exempt from the
// error-handling rule.
func (p *Pass) InExamples() bool {
	return pathHasSegment(p.PkgPath, "examples")
}

func pathHasSegment(path, seg string) bool {
	for _, s := range strings.Split(path, "/") {
		if s == seg {
			return true
		}
	}
	return false
}

// Timing records one analyzer's wall time over one package.
type Timing struct {
	Analyzer string
	Elapsed  time.Duration
}

// Run executes the analyzers over one loaded package on its own: the
// one-package case of AnalyzeModule's engine, in which callees declared in
// other packages are opaque. Suppressed findings are dropped, malformed
// suppressions are added, and the result is sorted by position then rule.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	diags, _ := buildIPA([]*Package{pkg}).run(pkg, analyzers)
	return diags
}

// run executes the analyzers over one package of the linked set and
// returns its surviving findings, sorted, with per-analyzer wall time in
// analyzer order.
func (ipa *IPA) run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, []Timing) {
	var diags []Diagnostic
	timings := make([]Timing, 0, len(analyzers))
	for _, a := range analyzers {
		pass := &Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			PkgPath:   pkg.Path,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			pkg:       pkg,
			ipa:       ipa,
			rule:      a.Name,
		}
		pass.report = func(d Diagnostic) { diags = append(diags, d) }
		start := time.Now()
		a.Run(pass)
		timings = append(timings, Timing{Analyzer: a.Name, Elapsed: time.Since(start)})
	}
	ig := pkg.ignores()
	kept := diags[:0]
	for _, d := range diags {
		if !ig.suppressed(d) {
			kept = append(kept, d)
		}
	}
	kept = append(kept, ig.malformed...)
	SortDiagnostics(kept)
	return kept, timings
}

// SortDiagnostics orders findings by (file, line, column, rule), the stable
// order every output mode prints in.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
}

// isFloat reports whether t's core type is float32 or float64 (including
// untyped float constants).
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isErrorType reports whether t is exactly the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// builtins, conversions, and calls through function-typed values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// anyNode reports whether pred holds for some node of root's subtree, root
// included. With skipLits the search does not enter function literals (nor
// a literal root): their code runs at some other time.
func anyNode(root ast.Node, skipLits bool, pred func(ast.Node) bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); found || isLit && skipLits {
			return false
		}
		found = pred(n)
		return !found
	})
	return found
}
