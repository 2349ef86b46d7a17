// Command darnet-lint runs DarNet's project-specific static analyzers over
// the module and exits non-zero on findings.
//
//	darnet-lint [-sarif] [-list] [-timings] [packages...]
//
// Packages default to ./... (the whole module); "dir/..." subtree patterns
// and plain directory paths are also accepted. Each finding is reported as
//
//	file:line:col: [rule] message
//
// or, with -sarif, as a SARIF 2.1.0 log — both sorted by (file, line,
// column, rule) so CI can diff lint results across commits.
//
// The matched packages are analyzed as one linked unit in dependency order:
// one call graph spans them, so goleak, lockorder, hotalloc, ctxprop,
// shapeflow, chanlife and atomicmix follow calls across package
// boundaries. -list shows the registry; -timings reports per-phase
// load/ir/analyze and per-analyzer wall time (aggregated across packages)
// on stderr.
//
// Suppress a finding with a justified directive on the offending line or
// the line above:
//
//	//lint:ignore <rule> <reason>
//
// A directive that suppressed nothing — neither a finding nor a fact
// another package's analysis used — is itself reported, as an
// [unused-ignore] finding.
package main

import (
	"flag"
	"fmt"
	"os"

	"darnet/internal/lint"
)

func main() {
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0")
	list := flag.Bool("list", false, "list registered analyzers and exit")
	timings := flag.Bool("timings", false, "report per-phase and per-analyzer wall time on stderr")
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	res, err := run(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "darnet-lint: %v\n", err)
		os.Exit(2)
	}

	out := renderText(res.Diags)
	if *sarifOut {
		if out, err = renderSARIF(res.Diags, analyzers); err != nil {
			fmt.Fprintf(os.Stderr, "darnet-lint: %v\n", err)
			os.Exit(2)
		}
	}
	fmt.Print(out)

	if *timings {
		fmt.Fprint(os.Stderr, renderTimings(analyzers, res.Spent, res.Phases))
	}
	if len(res.Diags) > 0 {
		os.Exit(1)
	}
}

// run loads every package matching the patterns and analyzes them as one
// linked module with the full registry.
func run(patterns []string) (*lint.ModuleResult, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		return nil, err
	}
	var pkgs [][2]string
	seen := make(map[string]bool)
	for _, pattern := range patterns {
		matched, err := loader.ModulePackages(pattern)
		if err != nil {
			return nil, err
		}
		if len(matched) == 0 {
			return nil, fmt.Errorf("no packages match %q", pattern)
		}
		for _, p := range matched {
			if !seen[p[1]] {
				seen[p[1]] = true
				pkgs = append(pkgs, p)
			}
		}
	}
	return lint.AnalyzeModule(loader, pkgs, lint.All())
}
