package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"darnet/internal/lint"
)

// modipaBase is the synthetic import-path prefix of the three-level fixture
// tree under testdata/src/modipa (root -> mid -> leaf, plus rootquiet).
const modipaBase = "darnet/internal/lintfixture/modipa/"

// modipaPkgs returns the fixture tree's (dir, importPath) pairs deliberately
// out of dependency order: AnalyzeModule must topo-sort before linking.
func modipaPkgs(dir string) [][2]string {
	return [][2]string{
		{filepath.Join(dir, "root"), modipaBase + "root"},
		{filepath.Join(dir, "rootquiet"), modipaBase + "rootquiet"},
		{filepath.Join(dir, "leaf"), modipaBase + "leaf"},
		{filepath.Join(dir, "mid"), modipaBase + "mid"},
	}
}

var modipaDir = filepath.Join("testdata", "src", "modipa")

// TestModuleLinkedFindings is the positive half of the cross-package
// contract: analyzed as one linked module, the fixture tree yields exactly
// the four findings seeded in package root — each provable only by reading
// another package's functions through the linked graph — and nothing in
// leaf, mid, or the fully-suppressed rootquiet.
func TestModuleLinkedFindings(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	res, err := lint.AnalyzeModule(loader, modipaPkgs(modipaDir), lint.All())
	if err != nil {
		t.Fatalf("AnalyzeModule: %v", err)
	}
	if res.Packages != 4 {
		t.Fatalf("analyzed %d packages, want 4", res.Packages)
	}
	for _, d := range res.Diags {
		if !strings.Contains(filepath.ToSlash(d.Pos.Filename), "modipa/root/") {
			t.Errorf("finding outside package root: %s", d)
		}
	}
	wants := []struct{ rule, substr string }{
		{"goleak", "goroutine mid.Watch can block forever"},
		{"goleak", "leaf.WaitForever"}, // the ultimate site two packages down
		{"hotalloc", "call into mid.Refill"},
		{"hotalloc", "call into leaf.Grow"}, // nested through mid's summary
		{"lockorder", "potential ABBA deadlock"},
		{"lockorder", "the reversing order is recorded in a dependency package"},
		{"shapeflow", "inner dimensions disagree: 64 vs 32"},
	}
	for _, w := range wants {
		found := false
		for _, d := range res.Diags {
			if d.Rule == w.rule && strings.Contains(d.Message, w.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s finding containing %q in %v", w.rule, w.substr, res.Diags)
		}
	}
	if len(res.Diags) != 4 {
		t.Errorf("want exactly 4 module-linked findings (goleak, hotalloc, lockorder, shapeflow), got %d: %v", len(res.Diags), res.Diags)
	}
	if len(res.Phases) != 3 {
		t.Errorf("want 3 pipeline phases (load, ir, analyze), got %v", res.Phases)
	}
}

// TestModuleFindingsVanishPerPackage is the negative half: the same tree
// analyzed package-by-package (sources registered so imports resolve, but no
// linked graph) yields nothing — every finding above genuinely needs the
// cross-package link.
func TestModuleFindingsVanishPerPackage(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	// Topological order by hand: imports must resolve, callees must not.
	order := []string{"leaf", "mid", "root", "rootquiet"}
	var diags []lint.Diagnostic
	for _, name := range order {
		pkg, err := loader.LoadDir(filepath.Join(modipaDir, name), modipaBase+name)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		loader.RegisterSource(pkg)
		diags = append(diags, lint.Run(pkg, lint.All())...)
	}
	if len(diags) != 0 {
		t.Fatalf("per-package analysis must miss the cross-package findings, got %v", diags)
	}
}

// mutLoader is a second loader for the mutation tests: they register mutated
// copies of real packages under the originals' import paths, which must not
// leak into the loader the fixture tests share.
var mutLoader = sync.OnceValues(func() (*lint.Loader, error) {
	return lint.NewLoader(".")
})

// copyGoFiles copies a package's non-test .go files into dst, applying
// mutate to each file's source.
func copyGoFiles(t *testing.T, src, dst string, mutate func(name, content string) string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatalf("read %s: %v", src, err)
	}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		content := string(data)
		if mutate != nil {
			content = mutate(name, content)
		}
		if err := os.WriteFile(filepath.Join(dst, name), []byte(content), 0o644); err != nil {
			t.Fatalf("write %s: %v", name, err)
		}
	}
}

// copyTree copies a four-package fixture tree (leaf, mid, root, rootquiet)
// into a temp dir, applying mutate to each package's file sources, and
// returns the copy's root.
func copyTree(t *testing.T, src string, mutate func(pkg, content string) string) string {
	t.Helper()
	tmp := t.TempDir()
	for _, name := range []string{"leaf", "mid", "root", "rootquiet"} {
		sub := filepath.Join(tmp, name)
		if err := os.Mkdir(sub, 0o755); err != nil {
			t.Fatalf("mkdir %s: %v", name, err)
		}
		copyGoFiles(t, filepath.Join(src, name), sub, func(_, content string) string {
			return mutate(name, content)
		})
	}
	return tmp
}

// ignoreLines returns the file:line of every //lint:ignore directive in one
// fixture package directory.
func ignoreLines(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	var out []string
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read %s: %v", e.Name(), err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//lint:ignore ") {
				out = append(out, fmt.Sprintf("%s:%d", e.Name(), i+1))
			}
		}
	}
	return out
}

// unusedAt returns the unused-ignore findings keyed by file:line.
func unusedAt(diags []lint.Diagnostic) map[string]lint.Diagnostic {
	out := make(map[string]lint.Diagnostic)
	for _, d := range diags {
		if d.Rule == "unused-ignore" {
			out[fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)] = d
		}
	}
	return out
}

// TestModuleUnusedIgnores pins the unused-ignore bookkeeping over the
// modipa tree. rootquiet's three call-site directives suppress findings
// anchored in rootquiet, and leaf.Scratch's directive justifies an
// allocation that root's hot path reaches two packages up: all four are
// consumed. Once Scratch stops allocating its directive is stale, and a
// directive naming no analyzer is always reported.
func TestModuleUnusedIgnores(t *testing.T) {
	loader, err := mutLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	quiet := ignoreLines(t, filepath.Join(modipaDir, "rootquiet"))
	scratch := ignoreLines(t, filepath.Join(modipaDir, "leaf"))
	if len(quiet) != 3 || len(scratch) != 1 {
		t.Fatalf("fixture drifted: want 3 rootquiet and 1 leaf directives, got %v and %v", quiet, scratch)
	}
	res, err := lint.AnalyzeModule(loader, modipaPkgs(modipaDir), lint.All())
	if err != nil {
		t.Fatalf("AnalyzeModule: %v", err)
	}
	if unused := unusedAt(res.Diags); len(unused) != 0 {
		t.Fatalf("every modipa directive must be consumed, got %v", unused)
	}

	const (
		alloc     = "return make([]byte, 4096)"
		noAlloc   = "return warm[:]"
		unknown   = "//lint:ignore nosuchrule a directive for an analyzer that does not exist\n"
		monitor   = "func Monitor() {\n"
		wantStale = "//lint:ignore hotalloc suppressed nothing in this run; delete it"
	)
	tmp := copyTree(t, modipaDir, func(name, content string) string {
		old, repl := "", ""
		switch name {
		case "leaf":
			old, repl = alloc, noAlloc
		case "rootquiet":
			old, repl = monitor, monitor+"\t"+unknown
		default:
			return content
		}
		next := strings.Replace(content, old, repl, 1)
		if next == content {
			t.Fatalf("%s fixture drifted: %q not found", name, old)
		}
		return next
	})
	res, err = lint.AnalyzeModule(loader, modipaPkgs(tmp), lint.All())
	if err != nil {
		t.Fatalf("AnalyzeModule(mutated): %v", err)
	}
	unused := unusedAt(res.Diags)
	if d, ok := unused[scratch[0]]; !ok || d.Message != wantStale {
		t.Errorf("leaf.Scratch's directive must be reported stale once Scratch stops allocating, got %v", unused)
	}
	unknownAt := lineOf(t, filepath.Join(tmp, "rootquiet", "rootquiet.go"), "nosuchrule")
	if d, ok := unused[unknownAt]; !ok || !strings.Contains(d.Message, "names no known analyzer") {
		t.Errorf("a directive naming no analyzer must be reported at %s, got %v", unknownAt, unused)
	}
	if len(unused) != 2 {
		t.Errorf("want exactly the stale and the unknown directive reported, got %v", unused)
	}
}

// lineOf returns the base:line of the first line in path containing substr.
func lineOf(t *testing.T, path, substr string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		if strings.Contains(line, substr) {
			return fmt.Sprintf("%s:%d", filepath.Base(path), i+1)
		}
	}
	t.Fatalf("%s: no line contains %q", path, substr)
	return ""
}

// permutations returns every ordering of pkgs.
func permutations(pkgs [][2]string) [][][2]string {
	if len(pkgs) <= 1 {
		return [][][2]string{pkgs}
	}
	var out [][][2]string
	for i := range pkgs {
		rest := append(append([][2]string(nil), pkgs[:i]...), pkgs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([][2]string{pkgs[i]}, p...))
		}
	}
	return out
}

// TestModuleOrderInvariance analyzes the modipa and modflow trees in all 24
// input orders of their four packages: the diagnostics must be
// byte-identical, and each cross-package finding must appear exactly once,
// in package root, where it is anchored.
func TestModuleOrderInvariance(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, tree := range []struct {
		name  string
		pkgs  [][2]string
		count int
	}{
		{"modipa", modipaPkgs(modipaDir), 4},
		{"modflow", modflowPkgs(modflowDir), 2},
	} {
		orders := permutations(tree.pkgs)
		if len(orders) != 24 {
			t.Fatalf("%s: %d orders, want 24", tree.name, len(orders))
		}
		var first string
		for i, order := range orders {
			res, err := lint.AnalyzeModule(loader, order, lint.All())
			if err != nil {
				t.Fatalf("%s order %d: %v", tree.name, i, err)
			}
			var b strings.Builder
			seen := make(map[string]bool)
			for _, d := range res.Diags {
				line := d.String()
				if seen[line] {
					t.Errorf("%s order %d: duplicate finding %s", tree.name, i, line)
				}
				seen[line] = true
				if !strings.Contains(filepath.ToSlash(d.Pos.Filename), tree.name+"/root/") {
					t.Errorf("%s order %d: finding outside package root: %s", tree.name, i, d)
				}
				b.WriteString(line + "\n")
			}
			if len(res.Diags) != tree.count {
				t.Errorf("%s order %d: %d findings, want %d: %v", tree.name, i, len(res.Diags), tree.count, res.Diags)
			}
			if i == 0 {
				first = b.String()
			} else if b.String() != first {
				t.Errorf("%s order %d differs from order 0:\n%s\nvs\n%s", tree.name, i, b.String(), first)
			}
		}
	}
}

// TestModuleShapeMutationNN is the shape acceptance check: seeding a static
// inner-dimension mismatch into internal/nn's Dense.Forward is caught by
// shapeflow. The unmutated copy stays clean, guarding against false
// positives.
func TestModuleShapeMutationNN(t *testing.T) {
	loader, err := mutLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	const (
		orig    = "y, err := tensor.MatMul(x, d.w.Value)"
		mutated = "y, err := tensor.MatMul(tensor.New(8, 3), tensor.New(4, 8))"
	)
	run := func(name, replace string) []lint.Diagnostic {
		dir := t.TempDir()
		hit := false
		copyGoFiles(t, filepath.Join("..", "nn"), dir, func(file, content string) string {
			if file == "dense.go" && replace != "" {
				next := strings.Replace(content, orig, replace, 1)
				if next == content {
					t.Fatalf("dense.go drifted: forward line %q not found", orig)
				}
				hit = true
				return next
			}
			return content
		})
		if replace != "" && !hit {
			t.Fatalf("dense.go not seen while copying internal/nn")
		}
		res, err := lint.AnalyzeModule(loader, [][2]string{{dir, "darnet/internal/" + name}}, lint.All())
		if err != nil {
			t.Fatalf("AnalyzeModule(%s): %v", name, err)
		}
		return res.Diags
	}

	cleanDiags := run("nnclean", "")
	for _, d := range cleanDiags {
		if d.Rule == "shapeflow" {
			t.Fatalf("unmutated internal/nn must be shapeflow-clean, got %s", d)
		}
	}

	mutDiags := run("nnmut", mutated)
	found := false
	for _, d := range mutDiags {
		if d.Rule == "shapeflow" && strings.Contains(d.Message, "inner dimensions disagree: 3 vs 4") {
			found = true
		}
	}
	if !found {
		t.Fatalf("module analysis must catch the seeded shape mismatch, got %v", mutDiags)
	}
}

// TestModuleLockMutationDurable is the acceptance check for the held-lock
// walk behind locksafe and lockorder, run on internal/durable: the package
// whose documented lock order nests (collect and tsdb never hold one lock
// while taking another, so neither records an order to invert). Deleting
// the unlock on Checkpoint's closed-manager return path must raise
// locksafe. Taking w.syncMu inside an append, which holds w.mu, inverts
// the documented syncMu < w.mu order and must raise lockorder. The
// unmutated copy is clean of both rules.
func TestModuleLockMutationDurable(t *testing.T) {
	loader, err := mutLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, d := range lintMutant(t, loader, "durable", "durableclean", "", "", "") {
		if d.Rule == "locksafe" || d.Rule == "lockorder" {
			t.Fatalf("unmutated internal/durable must be lock-clean, got %s", d)
		}
	}
	for _, m := range []struct{ name, file, orig, mutated, rule, substr string }{
		{
			name: "durableleak", file: "manager.go",
			orig:    "if m.closed {\n\t\tm.mu.Unlock()\n\t\treturn ErrClosed",
			mutated: "if m.closed {\n\t\treturn ErrClosed",
			rule:    "locksafe", substr: "return with m.mu still locked",
		},
		{
			name: "durableorder", file: "wal.go",
			orig:    "lsn, err := w.appendLocked(b)\n\tw.mu.Unlock()",
			mutated: "lsn, err := w.appendLocked(b)\n\tw.syncMu.Lock()\n\tw.syncMu.Unlock()\n\tw.mu.Unlock()",
			rule:    "lockorder", substr: "wal.mu ↔ wal.syncMu",
		},
	} {
		diags := lintMutant(t, loader, "durable", m.name, m.file, m.orig, m.mutated)
		found := false
		for _, d := range diags {
			if d.Rule == m.rule && strings.Contains(d.Message, m.substr) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: want a %s finding containing %q, got %v", m.name, m.rule, m.substr, diags)
		}
	}
}

// lintMutant copies internal/<pkg>'s non-test files into a temp dir,
// replacing orig with mutated once in file (no replacement when file is
// ""), and returns the module analysis of the copy, linted as
// darnet/internal/<name>.
func lintMutant(t *testing.T, loader *lint.Loader, pkg, name, file, orig, mutated string) []lint.Diagnostic {
	t.Helper()
	dir := t.TempDir()
	hit := false
	copyGoFiles(t, filepath.Join("..", pkg), dir, func(f, content string) string {
		if f != file {
			return content
		}
		next := strings.Replace(content, orig, mutated, 1)
		if next == content {
			t.Fatalf("%s drifted: %q not found", file, orig)
		}
		hit = true
		return next
	})
	if file != "" && !hit {
		t.Fatalf("%s not seen while copying internal/%s", file, pkg)
	}
	res, err := lint.AnalyzeModule(loader, [][2]string{{dir, "darnet/internal/" + name}}, lint.All())
	if err != nil {
		t.Fatalf("AnalyzeModule(%s): %v", name, err)
	}
	return res.Diags
}

// TestModuleCtxpropMutationCore is the ctxprop acceptance check on real
// code: Engine.classifyCtx starting its span from context.Background()
// instead of its ctx severs the caller's trace and cancellation, and
// ctxprop must report it. The unmutated copy of internal/core is clean.
func TestModuleCtxpropMutationCore(t *testing.T) {
	loader, err := mutLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, d := range lintMutant(t, loader, "core", "coreclean", "", "", "") {
		if d.Rule == "ctxprop" || d.Rule == "goleak" {
			t.Fatalf("unmutated internal/core must be ctxprop- and goleak-clean, got %s", d)
		}
	}
	diags := lintMutant(t, loader, "core", "coremut", "engine.go",
		`StartSpan(ctx, "darnet_stage_classify")`,
		`StartSpan(context.Background(), "darnet_stage_classify")`)
	for _, d := range diags {
		if d.Rule == "ctxprop" && strings.Contains(d.Message, "classifyCtx has a context parameter but passes context.Background to StartSpan") {
			return
		}
	}
	t.Fatalf("module analysis must catch the manufactured context, got %v", diags)
}

// TestModuleGoleakMutationCollect is the goleak acceptance check on real
// code: the agent runner's spawned loop selects on its poll and flush
// tickers beside r.stop. Hoisting the poll receive out of the select into
// a bare receive leaves the goroutine waiting where no stop can reach it,
// and goleak must report the go statement. The unmutated copy of
// internal/collect is clean.
func TestModuleGoleakMutationCollect(t *testing.T) {
	loader, err := mutLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, d := range lintMutant(t, loader, "collect", "collectclean", "", "", "") {
		if d.Rule == "goleak" || d.Rule == "ctxprop" {
			t.Fatalf("unmutated internal/collect must be goleak- and ctxprop-clean, got %s", d)
		}
	}
	diags := lintMutant(t, loader, "collect", "collectmut", "runner.go",
		"\t\tselect {\n\t\tcase <-poll.C:\n\t\t\tr.pollOnce()\n\t\tcase <-flush.C:",
		"\t\t<-poll.C\n\t\tr.pollOnce()\n\t\tselect {\n\t\tcase <-flush.C:")
	for _, d := range diags {
		if d.Rule == "goleak" && strings.Contains(d.Message, "goroutine (*Runner).loop can block forever: channel receive at runner.go") {
			return
		}
	}
	t.Fatalf("module analysis must catch the loop's bare receive, got %v", diags)
}

// TestModuleGoleakMutationStream is the goleak acceptance check through a
// synchronous callback: the pipeline's worker runs drain inside pprof.Do's
// literal, and drain selects on its queue beside p.stop. Turning the select
// into a bare queue receive leaves the worker waiting where no stop can
// reach it, and goleak must report the go statement. The unmutated copy of
// internal/stream is clean.
func TestModuleGoleakMutationStream(t *testing.T) {
	loader, err := mutLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	for _, d := range lintMutant(t, loader, "stream", "streamclean", "", "", "") {
		if d.Rule == "goleak" {
			t.Fatalf("unmutated internal/stream must be goleak-clean, got %s", d)
		}
	}
	diags := lintMutant(t, loader, "stream", "streammut", "pipeline.go",
		"\t\tselect {\n\t\tcase <-p.stop:\n\t\t\treturn\n\t\tcase in := <-p.queue:\n",
		"\t\tin := <-p.queue\n\t\t{\n")
	for _, d := range diags {
		if d.Rule == "goleak" && strings.Contains(d.Message, "goroutine (*Pipeline).worker can block forever: channel receive at pipeline.go") {
			return
		}
	}
	t.Fatalf("module analysis must catch drain's bare receive, got %v", diags)
}

// TestModuleAllocMutationTwoLevels is the hotalloc acceptance check: seeding
// an allocation into leaf.Buffer — two packages below root's //lint:hotpath
// Pack — is caught by the module-linked analysis and missed per-package
// (leaf itself has no hotpath root, and root cannot see leaf's body).
func TestModuleAllocMutationTwoLevels(t *testing.T) {
	loader, err := mutLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	const (
		reuse  = "return warm[:]"
		seeded = "return make([]byte, 256)"
	)
	tmp := copyTree(t, modipaDir, func(name, content string) string {
		if name != "leaf" {
			return content
		}
		next := strings.Replace(content, reuse, seeded, 1)
		if next == content {
			t.Fatalf("leaf fixture drifted: buffer reuse line %q not found", reuse)
		}
		return next
	})

	res, err := lint.AnalyzeModule(loader, modipaPkgs(tmp), lint.All())
	if err != nil {
		t.Fatalf("AnalyzeModule: %v", err)
	}
	found := false
	for _, d := range res.Diags {
		if d.Rule == "hotalloc" && strings.Contains(d.Message, "call into mid.Fetch") &&
			strings.Contains(d.Message, "root Pack") {
			found = true
		}
	}
	if !found {
		t.Fatalf("module analysis must catch the seeded allocation two packages below the hotpath root, got %v", res.Diags)
	}

	// Per-package: reload the mutated tree without linking it; the
	// seeded make is invisible from root and not hot inside leaf.
	var diags []lint.Diagnostic
	for _, name := range []string{"leaf", "mid", "root", "rootquiet"} {
		pkg, err := loader.LoadDir(filepath.Join(tmp, name), modipaBase+name)
		if err != nil {
			t.Fatalf("reload %s: %v", name, err)
		}
		loader.RegisterSource(pkg)
		diags = append(diags, lint.Run(pkg, lint.All())...)
	}
	for _, d := range diags {
		if d.Rule == "hotalloc" {
			t.Fatalf("per-package analysis must miss the seeded allocation, got %s", d)
		}
	}
}
