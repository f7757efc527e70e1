// Command dtmlint is the engine's multichecker: it loads the module,
// type-checks every package, and runs the determinism and goroutine-site
// analyzer suite (detclock, detrange, gosites) from internal/analysis.
// Findings print as file:line:col: analyzer: message and make the process
// exit 1, so `make lint` (and through it `make check` and CI) gates on a
// clean run. There is no suppression comment: detclock and gosites take
// exceptions only from the function allowlists in their source.
//
// Usage:
//
//	dtmlint [-list] [packages]
//
// The package patterns are accepted for interface familiarity; the tool
// always analyzes the whole module containing the working directory
// (scoping per analyzer is built in via each analyzer's package set).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dtm/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()
	if *list {
		for _, a := range analysis.Suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dtmlint:", err)
		os.Exit(2)
	}
}

func run() error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		return err
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		return err
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		return err
	}
	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analysis.Suite {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			ds, err := analysis.RunAnalyzer(a, pkg)
			if err != nil {
				return err
			}
			diags = append(diags, ds...)
		}
	}
	fset := loader.Fset
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	for _, d := range diags {
		fmt.Printf("%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Printf("dtmlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
	return nil
}
