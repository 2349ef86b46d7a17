package lint

import (
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// testOnlyAllowed lists the exported functions that may have no non-test
// caller, each with the reason it stays. An entry that stops being needed
// fails TestNoTestOnlyExports too, so the list cannot hide regrowth.
var testOnlyAllowed = map[string]string{
	"darnet.NewAlerter": "facade name shown by the executed ExampleAlerter",
	"darnet/internal/collect.DefaultProcessingPolicy": "the §4.3 local/remote policy, shown by the executed ExampleProcessingPolicy_Decide",
	"darnet/internal/collect.NewSessionScript":        "the §5.1 scripted-session labelling, shown by the executed ExampleSessionScript",
	"darnet/internal/core.RemoteClassify":             "the paper's remote-configuration client; darnetd's tests drive ServeClassifyCtx with it",
	"darnet/internal/privacy.NewRouter":               "the §4.3 tagged dCNN routing behind Engine.SetDCNNRouter, which the privacy tests check",
	"darnet/internal/stream.EvaluateAlerts":           "test oracle: the replay the served pipeline's alerts are checked against",
	"darnet/internal/fault.NewGate":                   "test fake: the gate that holds a goroutine at a chosen point",
	"darnet/internal/lint.Run":                        "test harness: the one-package run the analyzer fixtures drive",
	"darnet/internal/tensor.Add":                      "called by the shapeflow fixture's operand-shape case",
	"darnet/internal/tensor.MustFromSlice":            "Must* helper",
	"darnet/internal/tensor.MustMatMul":               "Must* helper",
	"darnet/internal/tensor.Uniform":                  "test helper: the uniform inputs the layer tests and kernel ledgers draw",
}

// loadModule loads every package of the module, perfbench included, in
// dependency order on a fresh loader.
func loadModule(t *testing.T, extra ...[2]string) []*Package {
	t.Helper()
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.ModulePackages("./...")
	if err != nil {
		t.Fatalf("module packages: %v", err)
	}
	loaded, err := loadLinked(loader, append(pkgs, extra...))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return loaded
}

// testOnlyExports returns, as "path.Name", each exported top-level function
// declared in pkgs that no non-test file of pkgs refers to and allowed does
// not list, then each allowed name that is not such a function. References
// compare by package path and name.
func testOnlyExports(pkgs []*Package, allowed map[string]string) []string {
	key := func(f *types.Func) string { return f.Pkg().Path() + "." + f.Name() }
	used := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, obj := range pkg.Info.Uses {
			if f, ok := obj.(*types.Func); ok && f.Pkg() != nil {
				used[key(f)] = true
			}
		}
	}
	var out []string
	declared := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !fd.Name.IsExported() {
					continue
				}
				k := key(pkg.Info.Defs[fd.Name].(*types.Func))
				declared[k] = true
				if !used[k] && allowed[k] == "" {
					out = append(out, k)
				}
			}
		}
	}
	for k := range allowed {
		if !declared[k] || used[k] {
			out = append(out, "stale allowance "+k)
		}
	}
	sort.Strings(out)
	return out
}

// TestNoTestOnlyExports keeps code that only its own tests call from
// growing back: every exported top-level function in the module's non-test
// code must be referred to from some non-test file, or be listed in
// testOnlyAllowed with its reason.
func TestNoTestOnlyExports(t *testing.T) {
	if got := testOnlyExports(loadModule(t), testOnlyAllowed); len(got) != 0 {
		t.Fatalf("exported functions with no non-test caller: %v", got)
	}
}

// TestNoTestOnlyExportsCatchesPlant: a planted package's exported function
// that nothing calls is reported, and one its own package calls is not.
func TestNoTestOnlyExportsCatchesPlant(t *testing.T) {
	dir := t.TempDir()
	src := "package plant\n\nfunc Planted() {}\n\nfunc Called() {}\n\nfunc init() { Called() }\n"
	if err := os.WriteFile(filepath.Join(dir, "plant.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got := testOnlyExports(loadModule(t, [2]string{dir, "darnet/internal/plant"}), testOnlyAllowed)
	if len(got) != 1 || got[0] != "darnet/internal/plant.Planted" {
		t.Fatalf("want only the planted function reported, got %v", got)
	}
}
