// Output rendering for darnet-lint. Both formats print findings in the
// same (file, line, column, rule) order the lint package sorts into, so any
// two runs over the same tree produce byte-identical output.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"darnet/internal/lint"
)

// renderText prints one finding per line in file:line:col: [rule] message
// form with paths relative to the working directory.
func renderText(diags []lint.Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		fmt.Fprintf(&b, "%s:%d:%d: [%s] %s\n", relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
	}
	return b.String()
}

// Minimal SARIF 2.1.0 structures: one run, one result per finding, the rule
// metadata taken from the analyzers that actually ran.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func renderSARIF(diags []lint.Diagnostic, analyzers []*lint.Analyzer) (string, error) {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Rule,
			Level:   "warning",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(relPath(d.Pos.Filename))},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "darnet-lint", Rules: rules}},
			Results: results,
		}},
	}
	data, err := json.MarshalIndent(log, "", "  ")
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}

// renderTimings reports the pipeline phase times, then aggregated
// per-analyzer wall time in the registry's analyzer order.
func renderTimings(analyzers []*lint.Analyzer, spent map[string]int64, phases []lint.Timing) string {
	var b strings.Builder
	b.WriteString("phase timings:\n")
	for _, p := range phases {
		b.WriteString(fmt.Sprintf("  %-12s %v\n", p.Analyzer, p.Elapsed.Round(10*time.Microsecond)))
	}
	b.WriteString("analyzer timings (wall time summed across packages):\n")
	for _, a := range analyzers {
		b.WriteString(fmt.Sprintf("  %-12s %v\n", a.Name, time.Duration(spent[a.Name]).Round(10*time.Microsecond)))
	}
	return b.String()
}

func relPath(path string) string {
	cwd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(cwd, path)
	if err != nil {
		return path
	}
	return rel
}
