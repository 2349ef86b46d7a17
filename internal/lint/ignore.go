package lint

import (
	"go/token"
	"strings"
)

// ignoreEntry is one parsed //lint:ignore directive. used flips when the
// directive suppresses a finding, or justifies a fact a dependent package's
// analysis consulted (Package.justified), so AnalyzeModule can report the
// directives that no longer earn their keep.
type ignoreEntry struct {
	rule string
	pos  token.Position
	used bool
}

// ignoreSet indexes //lint:ignore directives by file and line. A directive
// suppresses matching findings on its own line and the line directly below
// it (the conventional "comment above the statement" placement).
type ignoreSet struct {
	// byLine maps file -> line -> directives anchored there ("all" matches
	// any rule).
	byLine    map[string]map[int][]*ignoreEntry
	entries   []*ignoreEntry
	malformed []Diagnostic
}

func buildIgnores(pkg *Package) *ignoreSet {
	ig := &ignoreSet{byLine: make(map[string]map[int][]*ignoreEntry)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				rest, ok := strings.CutPrefix(text, "lint:ignore")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					ig.malformed = append(ig.malformed, Diagnostic{
						Pos:     pos,
						Rule:    "ignore",
						Message: "malformed directive: want //lint:ignore <rule> <reason>",
					})
					continue
				}
				e := &ignoreEntry{rule: fields[0], pos: pos}
				ig.entries = append(ig.entries, e)
				lines := ig.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int][]*ignoreEntry)
					ig.byLine[pos.Filename] = lines
				}
				lines[pos.Line] = append(lines[pos.Line], e)
			}
		}
	}
	return ig
}

// justified reports whether a //lint:ignore rule directive covers pos, the
// site of a fact another package's analysis is about to use, and marks the
// directive used.
func (p *Package) justified(pos token.Pos, rule string) bool {
	return p.ignores().suppressed(Diagnostic{Pos: p.Fset.Position(pos), Rule: rule})
}

func (ig *ignoreSet) suppressed(d Diagnostic) bool {
	lines := ig.byLine[d.Pos.Filename]
	if lines == nil {
		return false
	}
	hit := false
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, e := range lines[line] {
			if e.rule == d.Rule || e.rule == "all" {
				e.used = true
				hit = true
			}
		}
	}
	return hit
}

// unused returns one diagnostic per directive that suppressed nothing,
// restricted to rules the run actually exercised: an ignore for an
// analyzer that was skipped this invocation is not stale, it is dormant.
// Directives naming a rule the registry does not know are always reported.
func (ig *ignoreSet) unused(ran map[string]bool, known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range ig.entries {
		if e.used {
			continue
		}
		switch {
		case !known[e.rule] && e.rule != "all":
			out = append(out, Diagnostic{
				Pos:     e.pos,
				Rule:    "unused-ignore",
				Message: "//lint:ignore " + e.rule + " names no known analyzer",
			})
		case ran[e.rule] || e.rule == "all":
			out = append(out, Diagnostic{
				Pos:     e.pos,
				Rule:    "unused-ignore",
				Message: "//lint:ignore " + e.rule + " suppressed nothing in this run; delete it",
			})
		}
	}
	return out
}
