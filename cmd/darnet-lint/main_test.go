package main

import (
	"strconv"
	"strings"
	"testing"

	"darnet/internal/lint"
)

// fixtureDirs are lint-fixture packages (addressed directly: the ... walk
// deliberately skips testdata) that are known to produce findings.
var fixtureDirs = []string{
	"internal/lint/testdata/src/ctxprop",
	"internal/lint/testdata/src/goleak",
	"internal/lint/testdata/src/hotalloc",
	"internal/lint/testdata/src/lockorder",
}

// TestDriverOutputDeterministic runs the driver pipeline twice over the same
// fixture packages and asserts both output formats are byte-identical:
// the contract CI relies on to diff lint results across commits. "pkg"
// lints each fixture package in its own run, "module" lints them together
// as one linked unit; the fixtures import none of each other, so both
// scopes must also agree.
func TestDriverOutputDeterministic(t *testing.T) {
	analyzers := lint.All()
	var texts []string
	for _, scope := range []string{"pkg", "module"} {
		t.Run(scope, func(t *testing.T) {
			batches := [][]string{fixtureDirs}
			if scope == "pkg" {
				batches = nil
				for _, dir := range fixtureDirs {
					batches = append(batches, []string{dir})
				}
			}
			var text, sarif [2]string
			for i := 0; i < 2; i++ {
				var diags []lint.Diagnostic
				for _, batch := range batches {
					res, err := run(batch)
					if err != nil {
						t.Fatalf("run %d: %v", i, err)
					}
					for _, a := range analyzers {
						if _, ok := res.Spent[a.Name]; !ok {
							t.Fatalf("run %d: no timing recorded for %s", i, a.Name)
						}
					}
					if len(res.Phases) != 3 {
						t.Fatalf("run %d: reported %d phases, want 3 (load/ir/analyze)", i, len(res.Phases))
					}
					diags = append(diags, res.Diags...)
				}
				if len(diags) == 0 {
					t.Fatalf("run %d: fixture packages produced no findings", i)
				}
				lint.SortDiagnostics(diags)
				var err error
				text[i] = renderText(diags)
				if sarif[i], err = renderSARIF(diags, analyzers); err != nil {
					t.Fatalf("run %d: render sarif: %v", i, err)
				}
			}
			if text[0] != text[1] {
				t.Errorf("text output differs between runs:\n--- first\n%s\n--- second\n%s", text[0], text[1])
			}
			if sarif[0] != sarif[1] {
				t.Errorf("sarif output differs between runs")
			}
			texts = append(texts, text[0])

			// Spot-check the sort contract on the text form: lines must be
			// ordered by (file, numeric line, numeric column) — plain string
			// comparison would mis-order line 139 before line 36.
			lines := strings.Split(strings.TrimSuffix(text[0], "\n"), "\n")
			for i := 1; i < len(lines); i++ {
				if positionLess(lines[i], lines[i-1]) {
					t.Fatalf("text output not sorted: %q precedes %q", lines[i-1], lines[i])
				}
			}
			if !strings.Contains(sarif[0], `"version": "2.1.0"`) {
				t.Fatalf("sarif output missing version marker:\n%s", sarif[0])
			}
		})
	}
	if len(texts) == 2 && texts[0] != texts[1] {
		t.Errorf("per-package and linked runs disagree:\n--- pkg\n%s\n--- module\n%s", texts[0], texts[1])
	}
}

// positionLess orders rendered "file:line:col: message" lines the way the
// driver sorts diagnostics: by file, then numeric line and column, then the
// remaining text.
func positionLess(a, b string) bool {
	af, al, ac, am := splitPos(a)
	bf, bl, bc, bm := splitPos(b)
	if af != bf {
		return af < bf
	}
	if al != bl {
		return al < bl
	}
	if ac != bc {
		return ac < bc
	}
	return am < bm
}

// splitPos parses "file:line:col: rest"; unparsable lines sort by raw text.
func splitPos(s string) (file string, line, col int, rest string) {
	parts := strings.SplitN(s, ":", 4)
	if len(parts) < 4 {
		return s, 0, 0, ""
	}
	l, err1 := strconv.Atoi(parts[1])
	c, err2 := strconv.Atoi(parts[2])
	if err1 != nil || err2 != nil {
		return s, 0, 0, ""
	}
	return parts[0], l, c, parts[3]
}
