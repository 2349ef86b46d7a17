package lint_test

import (
	"path/filepath"
	"strings"
	"testing"

	"darnet/internal/lint"
)

// TestLoadDirGenerics: a package built from type parameters, constraint
// interfaces, and generic methods must load, type-check, and survive the
// full analyzer suite (including the interprocedural engine) cleanly.
func TestLoadDirGenerics(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "loadgenerics")
	pkg, err := loader.LoadDir(dir, "darnet/internal/lintfixture/loadgenerics")
	if err != nil {
		t.Fatalf("load generics fixture: %v", err)
	}
	if obj := pkg.Types.Scope().Lookup("sum"); obj == nil {
		t.Fatalf("generic function sum missing from package scope")
	}
	if diags := lint.Run(pkg, lint.All()); len(diags) != 0 {
		t.Fatalf("generics fixture must be clean under the full suite, got %v", diags)
	}
}

// TestLoadDirStdlibDeps: imports outside the module's own dependency graph
// (container/list, net/url) must resolve through lazily fetched export data.
func TestLoadDirStdlibDeps(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "loadstdlib")
	pkg, err := loader.LoadDir(dir, "darnet/internal/lintfixture/loadstdlib")
	if err != nil {
		t.Fatalf("load stdlib fixture: %v", err)
	}
	for _, imp := range pkg.Types.Imports() {
		if imp.Path() == "encoding/json" && !imp.Complete() {
			t.Fatalf("encoding/json resolved but incomplete")
		}
	}
	if diags := lint.Run(pkg, lint.All()); len(diags) != 0 {
		t.Fatalf("stdlib fixture must be clean under the full suite, got %v", diags)
	}
}

// TestLoadDirTypeError: a package that fails type-checking must surface the
// error — naming the package and carrying a position — rather than panicking
// or returning a half-built package.
func TestLoadDirTypeError(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "loadbroken")
	pkg, err := loader.LoadDir(dir, "darnet/internal/lintfixture/loadbroken")
	if err == nil {
		t.Fatalf("broken fixture loaded without error: %+v", pkg)
	}
	if pkg != nil {
		t.Fatalf("broken fixture returned a package alongside the error")
	}
	if !strings.Contains(err.Error(), "loadbroken") {
		t.Fatalf("error does not name the package: %v", err)
	}
	if !strings.Contains(err.Error(), "broken.go") {
		t.Fatalf("error carries no source position: %v", err)
	}
}

// TestLoadDirBuildConstraints: a package with per-build implementations of
// one function (portable vs. tagged, as for an assembly kernel and its Go
// fallback) must load the files the default build selects, not both.
func TestLoadDirBuildConstraints(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "loadtags")
	pkg, err := loader.LoadDir(dir, "darnet/internal/lintfixture/loadtags")
	if err != nil {
		t.Fatalf("load build-constraint fixture: %v", err)
	}
	if len(pkg.Files) != 2 {
		t.Fatalf("loaded %d files, want portable.go and use.go", len(pkg.Files))
	}
	if diags := lint.Run(pkg, lint.All()); len(diags) != 0 {
		t.Fatalf("build-constraint fixture must be clean under the full suite, got %v", diags)
	}
}
