package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// This file runs the analyzers over a set of packages as one linked unit.
// Packages load in dependency (topological) order, each type-checked
// against the source-loaded objects of its dependencies, so one call graph
// and one summary fixpoint span them all: a whole-program analyzer reads a
// cross-package callee's node exactly as it reads a local one.
//
// Two rules keep a package's findings its own. Scope: they use only facts
// from the package and the analyzed packages it imports, transitively.
// Anchors: each finding sits at the first position inside the package on
// the path to the fact — the call site, the `go` statement, the earliest
// local lock edge, or the local access.

// ModuleResult is one module-wide analysis run: the merged findings plus
// per-phase and per-analyzer timings for the driver's -timings output.
type ModuleResult struct {
	// Diags holds every surviving finding, including one unused-ignore
	// finding per //lint:ignore directive that suppressed nothing.
	Diags    []Diagnostic
	Packages int
	// Phases records wall time for the pipeline stages: "load" (parse +
	// type-check), "ir" (call graph and summaries), and "analyze"
	// (analyzer runs, including the flow graphs they build).
	Phases []Timing
	// Spent is per-analyzer wall time in nanoseconds, summed across
	// packages.
	Spent map[string]int64
}

// AnalyzeModule runs the analyzers over the given (dir, importPath) pairs
// as one linked unit and merges the findings into one deterministically
// sorted list.
func AnalyzeModule(loader *Loader, pkgs [][2]string, analyzers []*Analyzer) (*ModuleResult, error) {
	res := &ModuleResult{Spent: make(map[string]int64)}
	start := time.Now()
	loaded, err := loadLinked(loader, pkgs)
	if err != nil {
		return nil, err
	}
	loadT := time.Since(start)

	// The call graph and summaries are built here so their cost is visible
	// as its own phase. Flow graphs are built on demand, for the functions
	// chanlife and qbound examine, and count toward those analyzers.
	start = time.Now()
	ipa := buildIPA(loaded)
	irT := time.Since(start)

	start = time.Now()
	for _, pkg := range loaded {
		diags, timings := ipa.run(pkg, analyzers)
		res.Diags = append(res.Diags, diags...)
		for _, tm := range timings {
			res.Spent[tm.Analyzer] += tm.Elapsed.Nanoseconds()
		}
	}
	analyzeT := time.Since(start)

	// Unused-ignore accounting runs after every package: a dependent's
	// analysis can consume a directive in the package it imports.
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, pkg := range loaded {
		res.Diags = append(res.Diags, pkg.ignores().unused(ran, known)...)
	}

	res.Packages = len(loaded)
	res.Phases = []Timing{
		{Analyzer: "load", Elapsed: loadT},
		{Analyzer: "ir", Elapsed: irT},
		{Analyzer: "analyze", Elapsed: analyzeT},
	}
	SortDiagnostics(res.Diags)
	return res, nil
}

// loadLinked type-checks pkgs in dependency order, registering each one so
// the packages after it import it from source.
func loadLinked(loader *Loader, pkgs [][2]string) ([]*Package, error) {
	order, err := topoOrder(loader.Fset, pkgs)
	if err != nil {
		return nil, err
	}
	loaded := make([]*Package, 0, len(order))
	for _, p := range order {
		pkg, err := loader.LoadDir(p[0], p[1])
		if err != nil {
			return nil, err
		}
		loader.RegisterSource(pkg)
		loaded = append(loaded, pkg)
	}
	return loaded, nil
}

// topoOrder sorts the packages so every in-set dependency precedes its
// dependents. Imports are read with a lightweight imports-only parse, so
// ordering happens before any type-checking. Import cycles (impossible for
// buildable Go, possible for malformed fixture sets) are an error.
func topoOrder(fset *token.FileSet, pkgs [][2]string) ([][2]string, error) {
	byPath := make(map[string][2]string, len(pkgs))
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		if _, dup := byPath[p[1]]; dup {
			continue
		}
		byPath[p[1]] = p
		paths = append(paths, p[1])
	}
	sort.Strings(paths)

	imports := make(map[string][]string, len(paths))
	for _, path := range paths {
		imps, err := dirImports(fset, byPath[path][0])
		if err != nil {
			return nil, err
		}
		for _, imp := range imps {
			if _, inSet := byPath[imp]; inSet && imp != path {
				imports[path] = append(imports[path], imp)
			}
		}
		sort.Strings(imports[path])
	}

	const (
		white = iota
		grey
		black
	)
	state := make(map[string]int, len(paths))
	out := make([][2]string, 0, len(paths))
	var visit func(string) error
	visit = func(path string) error {
		switch state[path] {
		case black:
			return nil
		case grey:
			return fmt.Errorf("lint: import cycle through %s", path)
		}
		state[path] = grey
		for _, dep := range imports[path] {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[path] = black
		out = append(out, byPath[path])
		return nil
	}
	for _, path := range paths {
		if err := visit(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// dirImports parses the import clauses of a directory's non-test .go files.
func dirImports(fset *token.FileSet, dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !seen[path] {
				seen[path] = true
				out = append(out, path)
			}
		}
	}
	return out, nil
}
