package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path (or synthetic path for fixtures)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	ipaOnce sync.Once
	ipaVal  *IPA

	igOnce sync.Once
	igVal  *ignoreSet

	// deps links this package to the function summaries of its
	// already-analyzed in-module dependencies. Nil in per-package mode;
	// the module analysis (AnalyzeModule) sets it before the first
	// Pass.IPA() call so cross-package facts fold into the summaries.
	deps *ModuleIndex
}

// SetDeps attaches the module summary index consulted when building this
// package's interprocedural summaries. It must be called before the first
// analyzer asks for Pass.IPA().
func (p *Package) SetDeps(ix *ModuleIndex) { p.deps = ix }

// ipa lazily builds the package's interprocedural engine exactly once, no
// matter how many whole-program analyzers ask for it.
func (p *Package) ipa() *IPA {
	p.ipaOnce.Do(func() { p.ipaVal = buildIPA(p) })
	return p.ipaVal
}

// ignores lazily parses the package's //lint:ignore directives exactly
// once, so the analyzer run and the summary export mark usage on the same
// entries — the bookkeeping behind the driver's -unused-ignores mode.
func (p *Package) ignores() *ignoreSet {
	p.igOnce.Do(func() { p.igVal = buildIgnores(p) })
	return p.igVal
}

// Loader parses module packages from source and type-checks them against
// compiled export data, which it obtains from the go toolchain's build cache
// (`go list -export`). This keeps the framework dependency-free: analyzed
// sources get full ASTs with comments, while imports resolve through the
// compiler's own export format.
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string

	exports map[string]string // import path -> export data file
	imp     types.Importer

	// srcPkgs holds source-loaded packages registered via RegisterSource.
	// The module analysis registers each package as it is analyzed so that
	// dependents type-check against the *same* type objects (and the shared
	// FileSet), which is what lets the cross-package engine resolve callees
	// by object identity instead of re-deriving them from export data.
	srcPkgs map[string]*types.Package
}

// chainedImporter resolves imports source-first: packages already loaded
// from source in this module analysis win over compiled export data, so one
// universe of type objects spans the whole analyzed set.
type chainedImporter struct{ l *Loader }

func (c chainedImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.l.srcPkgs[path]; ok {
		return p, nil
	}
	return c.l.imp.Import(path)
}

// NewLoader builds a loader rooted at the module containing dir. It runs one
// `go list -export -deps ./...` to map the module's full dependency graph to
// export data; unlisted imports (e.g. fixture-only stdlib packages) resolve
// lazily.
func NewLoader(dir string) (*Loader, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModuleDir:  root,
		ModulePath: modPath,
		exports:    make(map[string]string),
		srcPkgs:    make(map[string]*types.Package),
	}
	if err := l.listExports("-deps", "./..."); err != nil {
		return nil, err
	}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l, nil
}

// FindModuleRoot walks up from dir to the directory holding go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

func (l *Loader) listExports(args ...string) error {
	cmd := exec.Command("go", append([]string{"list", "-export", "-e", "-f", "{{.ImportPath}}\t{{.Export}}"}, args...)...)
	cmd.Dir = l.ModuleDir
	out, err := cmd.Output()
	if err != nil {
		msg := err.Error()
		if ee, ok := err.(*exec.ExitError); ok && len(ee.Stderr) > 0 {
			msg = string(ee.Stderr)
		}
		return fmt.Errorf("lint: go list -export %s: %s", strings.Join(args, " "), msg)
	}
	for _, line := range strings.Split(string(out), "\n") {
		path, file, ok := strings.Cut(line, "\t")
		if ok && file != "" {
			l.exports[path] = file
		}
	}
	return nil
}

// lookup feeds export data to the gc importer, fetching entries the upfront
// module listing missed on demand.
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	if _, ok := l.exports[path]; !ok {
		if err := l.listExports(path); err != nil {
			return nil, err
		}
	}
	file, ok := l.exports[path]
	if !ok {
		return nil, fmt.Errorf("lint: no export data for %q", path)
	}
	return os.Open(file)
}

// LoadDir parses and type-checks the non-test .go files of one directory as
// the package importPath. Test files are excluded: the rules that distinguish
// tests do so for fixture files, and production invariants bind non-test code.
// Files whose build constraints (//go:build lines, _GOOS/_GOARCH name
// suffixes) exclude them from the default build of this platform are
// skipped, as the compiler skips them.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no non-test .go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: chainedImporter{l}}
	pkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", importPath, err)
	}
	return &Package{Path: importPath, Dir: dir, Fset: l.Fset, Files: files, Types: pkg, Info: info}, nil
}

// RegisterSource makes a source-loaded package resolvable as an import of
// later LoadDir calls (source wins over export data). The module analysis
// registers packages in dependency order; fixture trees with synthetic
// import paths (which have no export data at all) rely on this to import
// each other.
func (l *Loader) RegisterSource(p *Package) {
	l.srcPkgs[p.Path] = p.Types
}

// ModulePackages expands `pattern` relative to the module root into the
// (dir, importPath) pairs of buildable packages. Supported patterns: "./..."
// for the whole module, "dir/..." for a subtree, and plain directory paths.
func (l *Loader) ModulePackages(pattern string) ([][2]string, error) {
	clean := func(rel string) string { return filepath.ToSlash(filepath.Clean(rel)) }
	importPathFor := func(rel string) string {
		if rel == "." {
			return l.ModulePath
		}
		return l.ModulePath + "/" + rel
	}
	if rel, ok := strings.CutSuffix(pattern, "..."); ok {
		rel = strings.TrimSuffix(rel, "/")
		if rel == "" || rel == "." {
			rel = "."
		}
		rel = clean(rel)
		var out [][2]string
		seen := make(map[string]bool)
		root := filepath.Join(l.ModuleDir, rel)
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				n := d.Name()
				if path != root && (strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(d.Name(), ".go") || strings.HasSuffix(d.Name(), "_test.go") {
				return nil
			}
			dir := filepath.Dir(path)
			relDir, err := filepath.Rel(l.ModuleDir, dir)
			if err != nil {
				return err
			}
			relDir = clean(relDir)
			if !seen[dir] {
				seen[dir] = true
				out = append(out, [2]string{dir, importPathFor(relDir)})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	abs := pattern
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(l.ModuleDir, pattern)
	}
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return nil, fmt.Errorf("lint: package %q is outside module %s", pattern, l.ModuleDir)
	}
	return [][2]string{{abs, importPathFor(clean(rel))}}, nil
}
