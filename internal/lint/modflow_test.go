package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"darnet/internal/lint"
)

// modflowBase is the synthetic import-path prefix of the concurrency
// fixture tree under testdata/src/modflow (root -> mid -> leaf, plus the
// clean rootquiet the mutation tests seed defects into).
const modflowBase = "darnet/internal/lintfixture/modflow/"

func modflowPkgs(dir string) [][2]string {
	return [][2]string{
		{filepath.Join(dir, "root"), modflowBase + "root"},
		{filepath.Join(dir, "rootquiet"), modflowBase + "rootquiet"},
		{filepath.Join(dir, "leaf"), modflowBase + "leaf"},
		{filepath.Join(dir, "mid"), modflowBase + "mid"},
	}
}

var modflowDir = filepath.Join("testdata", "src", "modflow")

// TestModflowLinkedFindings is the positive half of the concurrency
// contract: linked as one module, the tree yields exactly the two findings
// seeded in package root — a plain read of the counter mid manages
// atomically (atomicmix, via mid's linked accesses) and a close of a
// channel leaf.Halt already closed two packages down (chanlife, via the
// mustclose op folded through mid.Stop's summary).
func TestModflowLinkedFindings(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	res, err := lint.AnalyzeModule(loader, modflowPkgs(modflowDir), lint.All())
	if err != nil {
		t.Fatalf("AnalyzeModule: %v", err)
	}
	for _, d := range res.Diags {
		if !strings.Contains(filepath.ToSlash(d.Pos.Filename), "modflow/root/") {
			t.Errorf("finding outside package root: %s", d)
		}
	}
	wants := []struct{ rule, substr string }{
		{"atomicmix", "plain read of " + modflowBase + "leaf.Live"},
		{"chanlife", "close of already-closed channel ch"},
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
	if len(res.Diags) != 2 {
		t.Errorf("want exactly 2 module-linked findings (atomicmix, chanlife), got %d: %v", len(res.Diags), res.Diags)
	}
}

// TestModflowFindingsVanishPerPackage is the negative half: with the full
// registry running, the one-package engine (lint.Run) misses both seeded
// findings —
// root alone has no atomic side for the mix, and mid.Stop degrades to the
// effect-free external-callee assumption without its linked node.
func TestModflowFindingsVanishPerPackage(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	order := []string{"leaf", "mid", "root", "rootquiet"}
	var diags []lint.Diagnostic
	for _, name := range order {
		pkg, err := loader.LoadDir(filepath.Join(modflowDir, name), modflowBase+name)
		if err != nil {
			t.Fatalf("load %s: %v", name, err)
		}
		loader.RegisterSource(pkg)
		diags = append(diags, lint.Run(pkg, lint.All())...)
	}
	if len(diags) != 0 {
		t.Fatalf("per-package analysis must miss the cross-package concurrency findings, got %v", diags)
	}
}

// TestModuleQboundMutationStream is the qbound acceptance check against
// real code: deleting the capacity check from stream.Pipeline.Offer's
// admission loop (the //lint:bounded depth contract) is caught. The
// unmutated copy stays clean.
func TestModuleQboundMutationStream(t *testing.T) {
	loader, err := mutLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	const admission = "if d >= cap64 {\n\t\t\tp.shed(in)\n\t\t\treturn false\n\t\t}\n\t\t"
	run := func(name string, mutate bool) *lint.ModuleResult {
		dir := t.TempDir()
		copyGoFiles(t, filepath.Join("..", "stream"), dir, func(file, content string) string {
			if file == "pipeline.go" && mutate {
				next := strings.Replace(content, admission, "_ = cap64\n\t\t", 1)
				if next == content {
					t.Fatalf("pipeline.go drifted: admission check %q not found", admission)
				}
				return next
			}
			return content
		})
		res, err := lint.AnalyzeModule(loader, [][2]string{{dir, "darnet/internal/" + name}}, lint.All())
		if err != nil {
			t.Fatalf("AnalyzeModule(%s): %v", name, err)
		}
		return res
	}

	clean := run("streamclean", false)
	for _, d := range clean.Diags {
		if d.Rule == "qbound" {
			t.Fatalf("unmutated internal/stream must be qbound-clean, got %s", d)
		}
	}

	mut := run("streammut", true)
	found := false
	for _, d := range mut.Diags {
		if d.Rule == "qbound" && strings.Contains(d.Message, "not dominated by a capacity check") {
			found = true
		}
	}
	if !found {
		t.Fatalf("module analysis must catch the deleted admission check, got %v", mut.Diags)
	}
}

// mutateModflow copies the modflow tree into a temp dir, applying mutate to
// rootquiet's source, runs the module analysis over the copy, and returns
// the result plus the per-package diagnostics of the same tree.
func mutateModflow(t *testing.T, mutate func(content string) string) (*lint.ModuleResult, []lint.Diagnostic) {
	t.Helper()
	loader, err := mutLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	tmp := copyTree(t, modflowDir, func(name, content string) string {
		if name == "rootquiet" {
			return mutate(content)
		}
		return content
	})
	res, err := lint.AnalyzeModule(loader, modflowPkgs(tmp), lint.All())
	if err != nil {
		t.Fatalf("AnalyzeModule: %v", err)
	}
	var perPkg []lint.Diagnostic
	for _, name := range []string{"leaf", "mid", "root", "rootquiet"} {
		pkg, err := loader.LoadDir(filepath.Join(tmp, name), modflowBase+name)
		if err != nil {
			t.Fatalf("reload %s: %v", name, err)
		}
		loader.RegisterSource(pkg)
		perPkg = append(perPkg, lint.Run(pkg, lint.All())...)
	}
	return res, perPkg
}

// TestModuleAtomicMutation seeds the "plain read of an atomic counter"
// defect: rewriting rootquiet's atomic.LoadInt64 into a bare read is caught
// by the module-linked atomicmix (the atomic side lives in package mid) and
// missed per-package, where neither side alone shows the mix. This is
// exactly the defect class the race detector only catches on lucky
// interleavings.
func TestModuleAtomicMutation(t *testing.T) {
	res, perPkg := mutateModflow(t, func(content string) string {
		next := strings.Replace(content, "return atomic.LoadInt64(&leaf.Seen)", "return leaf.Seen", 1)
		if next == content {
			t.Fatalf("rootquiet fixture drifted: atomic read not found")
		}
		next = strings.Replace(next, "\t\"sync/atomic\"\n\n", "", 1)
		if next == content {
			t.Fatalf("rootquiet fixture drifted: sync/atomic import not found")
		}
		return next
	})
	found := false
	for _, d := range res.Diags {
		if d.Rule == "atomicmix" && strings.Contains(d.Message, "plain read of "+modflowBase+"leaf.Seen") &&
			strings.Contains(filepath.ToSlash(d.Pos.Filename), "rootquiet") {
			found = true
		}
	}
	if !found {
		t.Fatalf("module analysis must catch the seeded plain read, got %v", res.Diags)
	}
	for _, d := range perPkg {
		if d.Rule == "atomicmix" {
			t.Fatalf("per-package analysis must miss the seeded plain read, got %s", d)
		}
	}
}

// TestModuleChanMutation seeds the "double close in a shutdown path"
// defect: adding a close(ch) after mid.Stop(ch) — whose mustclose effect
// arrives through two linked summaries — is caught at module scope and
// missed per-package, where the callee defaults to effect-free.
func TestModuleChanMutation(t *testing.T) {
	res, perPkg := mutateModflow(t, func(content string) string {
		next := strings.Replace(content, "mid.Stop(ch)\n}", "mid.Stop(ch)\n\tclose(ch)\n}", 1)
		if next == content {
			t.Fatalf("rootquiet fixture drifted: mid.Stop call not found")
		}
		return next
	})
	found := false
	for _, d := range res.Diags {
		if d.Rule == "chanlife" && strings.Contains(d.Message, "close of already-closed channel ch") &&
			strings.Contains(filepath.ToSlash(d.Pos.Filename), "rootquiet") {
			found = true
		}
	}
	if !found {
		t.Fatalf("module analysis must catch the seeded double close, got %v", res.Diags)
	}
	for _, d := range perPkg {
		if d.Rule == "chanlife" {
			t.Fatalf("per-package analysis must miss the seeded double close, got %s", d)
		}
	}
}
