package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"darnet/internal/lint"
)

// sharedLoader builds one loader (one `go list -export` sweep) for all
// fixture tests.
var sharedLoader = sync.OnceValues(func() (*lint.Loader, error) {
	return lint.NewLoader(".")
})

// fixtureCase binds an analyzer to its fixture package. The synthetic import
// path controls path-gated rules (internal/ vs examples/). allowNoWants marks
// deliberately clean fixtures (the analyzer must stay silent over them).
type fixtureCase struct {
	analyzer     *lint.Analyzer
	fixture      string
	importPath   string
	allowNoWants bool
}

func fixtures() []fixtureCase {
	const base = "darnet/internal/lintfixture/"
	return []fixtureCase{
		{analyzer: lint.Locksafe, fixture: "locksafe", importPath: base + "locksafe"},
		{analyzer: lint.Floatcmp, fixture: "floatcmp", importPath: base + "floatcmp"},
		{analyzer: lint.Errdrop, fixture: "errdrop", importPath: base + "errdrop"},
		{analyzer: lint.Errdrop, fixture: "errdropexamples", importPath: "darnet/examples/lintfixture/errdropexamples"},
		{analyzer: lint.Globalrand, fixture: "globalrand", importPath: base + "globalrand"},
		{analyzer: lint.Ctxsleep, fixture: "ctxsleep", importPath: base + "ctxsleep"},
		{analyzer: lint.Shapeflow, fixture: "shapeflow", importPath: base + "shapeflow"},
		{analyzer: lint.Shapeflow, fixture: "shapecheck", importPath: base + "shapecheck"},
		{analyzer: lint.Metricname, fixture: "metricname", importPath: base + "metricname"},
		{analyzer: lint.Goleak, fixture: "goleak", importPath: base + "goleak"},
		{analyzer: lint.Lockorder, fixture: "lockorder", importPath: base + "lockorder"},
		{analyzer: lint.Hotalloc, fixture: "hotalloc", importPath: base + "hotalloc"},
		{analyzer: lint.Hotalloc, fixture: "hotallocpool", importPath: base + "hotallocpool", allowNoWants: true},
		{analyzer: lint.Ctxprop, fixture: "ctxprop", importPath: base + "ctxprop"},
		{analyzer: lint.Chanlife, fixture: "chanlife", importPath: base + "chanlife"},
		{analyzer: lint.Atomicmix, fixture: "atomicmix", importPath: base + "atomicmix"},
		{analyzer: lint.Qbound, fixture: "qbound", importPath: base + "qbound"},
	}
}

func TestAnalyzersAgainstFixtures(t *testing.T) {
	for _, tc := range fixtures() {
		name := tc.analyzer.Name
		if tc.fixture != name {
			name = tc.analyzer.Name + "/" + tc.fixture
		}
		t.Run(name, func(t *testing.T) {
			runFixture(t, tc)
		})
	}
}

// TestRegistryHasFixtures: every registered analyzer has a fixtures() case
// with at least one want, so merging or moving a rule cannot silently drop
// its fixture.
func TestRegistryHasFixtures(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	covered := make(map[string]bool)
	for _, tc := range fixtures() {
		pkg, err := loader.LoadDir(filepath.Join("testdata", "src", tc.fixture), tc.importPath)
		if err != nil {
			t.Fatalf("load fixture %s: %v", tc.fixture, err)
		}
		if len(collectWants(t, pkg, true)) > 0 {
			covered[tc.analyzer.Name] = true
		}
	}
	for _, a := range lint.All() {
		if !covered[a.Name] {
			t.Errorf("analyzer %s has no fixtures() case with a // want", a.Name)
		}
	}
}

// runFixture type-checks testdata/src/<fixture>, runs the analyzer, and
// matches findings against the `// want "regex"` comments: every want line
// must produce a matching finding and every finding must land on a want
// line.
func runFixture(t *testing.T, tc fixtureCase) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join("testdata", "src", tc.fixture)
	pkg, err := loader.LoadDir(dir, tc.importPath)
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := lint.Run(pkg, []*lint.Analyzer{tc.analyzer})

	wants := collectWants(t, pkg, tc.allowNoWants)
	matched := make(map[string]bool)
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		w, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding %s", d)
			continue
		}
		if !w.rx.MatchString(d.Message) {
			t.Errorf("finding %s does not match want %q", d, w.rx)
			continue
		}
		matched[key] = true
	}
	for key, w := range wants {
		if !matched[key] {
			t.Errorf("%s: want %q produced no finding", key, w.rx)
		}
	}
}

type wantExpect struct {
	rx *regexp.Regexp
}

// collectWants parses `// want "regex"` comments out of the fixture files,
// keyed by file:line.
func collectWants(t *testing.T, pkg *lint.Package, allowEmpty bool) map[string]wantExpect {
	wants := make(map[string]wantExpect)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				rest, ok := strings.CutPrefix(text, "want ")
				if !ok {
					continue
				}
				quoted := strings.TrimSpace(rest)
				pat, err := strconv.Unquote(quoted)
				if err != nil {
					t.Fatalf("%s: bad want comment %q: %v", pkg.Fset.Position(c.Pos()), quoted, err)
				}
				rx, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = wantExpect{rx: rx}
			}
		}
	}
	if len(wants) == 0 && !allowEmpty && !strings.Contains(pkg.Path, "examples") {
		t.Fatalf("fixture %s has no want comments", pkg.Dir)
	}
	return wants
}

// TestHotallocPoolMutation is the acceptance check for the hotalloc
// contract: the hotallocpool fixture mirrors internal/telemetry/span.go's
// sync.Pool reuse and is clean as written; deleting the reuse (rewriting the
// pool.Get line into a bare &span literal) must produce a hotalloc finding.
func TestHotallocPoolMutation(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	src, err := os.ReadFile(filepath.Join("testdata", "src", "hotallocpool", "pool.go"))
	if err != nil {
		t.Fatalf("read fixture: %v", err)
	}
	const reuse = "s = t.pool.Get().(*span)"
	mutated := strings.Replace(string(src), reuse, "s = &span{}", 1)
	if mutated == string(src) {
		t.Fatalf("fixture drifted: pool reuse line %q not found", reuse)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "pool.go"), []byte(mutated), 0o644); err != nil {
		t.Fatalf("write mutated fixture: %v", err)
	}
	pkg, err := loader.LoadDir(dir, "darnet/internal/lintfixture/hotallocpoolmut")
	if err != nil {
		t.Fatalf("load mutated fixture: %v", err)
	}
	diags := lint.Run(pkg, []*lint.Analyzer{lint.Hotalloc})
	found := false
	for _, d := range diags {
		if d.Rule == "hotalloc" && strings.Contains(d.Message, "composite literal allocation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("deleting the sync.Pool reuse must trip hotalloc, got %v", diags)
	}
}

// TestIgnoreDirectiveRequiresReason: a bare //lint:ignore without a rule and
// reason is itself reported.
func TestIgnoreDirectiveRequiresReason(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dir := filepath.Join("testdata", "src", "badignore")
	pkg, err := loader.LoadDir(dir, "darnet/internal/lintfixture/badignore")
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := lint.Run(pkg, []*lint.Analyzer{lint.Ctxsleep})
	var rules []string
	for _, d := range diags {
		rules = append(rules, d.Rule)
	}
	if len(diags) != 2 || rules[0] != "ctxsleep" && rules[1] != "ctxsleep" {
		t.Fatalf("want one ctxsleep finding (directive malformed, so not suppressed) and one ignore finding, got %v", diags)
	}
	foundMalformed := false
	for _, d := range diags {
		if d.Rule == "ignore" && strings.Contains(d.Message, "malformed") {
			foundMalformed = true
		}
	}
	if !foundMalformed {
		t.Fatalf("malformed directive not reported: %v", diags)
	}
}
