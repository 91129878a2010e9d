// Command annlint runs the repo's domain-specific static analyzers — the
// determinism, zero-alloc and error-hygiene invariants the compiler cannot
// check (see internal/analysis and DESIGN.md "Static analysis & determinism
// conventions").
//
// Usage:
//
//	annlint [-list] [-suppressions] [packages]
//
// With no arguments it lints ./... with the full suite. -suppressions lists
// every active //annlint:allow directive with file:line and justification,
// for audit, and exits 0. Exit codes: 0 clean, 1 diagnostics found, 2 usage
// or load failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"svdbench/internal/analysis"
)

const (
	exitClean = 0
	exitDiags = 1
	exitError = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("annlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	suppressions := fs.Bool("suppressions", false, "list active //annlint:allow directives and exit")
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	loader := analysis.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "annlint: %v\n", err)
		return exitError
	}

	if *suppressions {
		n := 0
		for _, pkg := range pkgs {
			if pkg.FactsOnly {
				continue
			}
			for _, s := range analysis.ListSuppressions(pkg, analyzers) {
				fmt.Fprintf(stdout, "%s:%d: allow %s -- %s\n", s.Pos.Filename, s.Pos.Line, s.Analyzer, s.Justification)
				n++
			}
		}
		fmt.Fprintf(stderr, "annlint: %d active suppression(s)\n", n)
		return exitClean
	}

	found := 0
	reported := 0
	for _, pkg := range pkgs {
		if !pkg.FactsOnly {
			reported++
		}
	}
	for _, d := range analysis.LintPackages(pkgs, analyzers) {
		fmt.Fprintln(stdout, d)
		found++
	}
	if found > 0 {
		fmt.Fprintf(stderr, "annlint: %d problem(s) in %d package(s)\n", found, reported)
		return exitDiags
	}
	return exitClean
}
