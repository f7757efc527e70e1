// Command dtmlint is the engine's multichecker: it loads the module,
// type-checks every package, and runs the determinism/goroutine-site/
// metrics analyzer suite (detclock, detrange, gosites, obsnames) from
// internal/analysis.
// Findings print as file:line:col: analyzer: message and make the process
// exit 1, so `make lint` (and through it `make check` and CI) gates on a
// clean run.
//
// Suppress an individual, justified finding with a directive on the same
// or the preceding line:
//
//	//lint:ignore <analyzer> <reason>
//
// A directive that suppresses nothing is itself reported as stale, so
// exceptions cannot rot.
//
// Usage:
//
//	dtmlint [-list] [-json] [packages]
//
// -json emits every finding — including suppressed ones, marked — as one
// JSON object per line, for machine consumers. The package patterns are
// accepted for interface familiarity; the tool always analyzes the whole
// module containing the working directory (scoping per analyzer is built
// in via each analyzer's package set).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"dtm/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON lines (includes suppressed findings)")
	flag.Parse()
	if *list {
		for _, a := range analysis.Suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if err := run(*jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "dtmlint:", err)
		os.Exit(2)
	}
}

// jsonFinding is the machine-readable shape of one finding.
type jsonFinding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func run(jsonOut bool) error {
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
	fset := loader.Fset
	var results []analysis.Result
	for _, pkg := range pkgs {
		var diags []analysis.Diagnostic
		var ran []string
		for _, a := range analysis.Suite {
			if a.AppliesTo != nil && !a.AppliesTo(pkg.Path) {
				continue
			}
			ds, err := analysis.RunAnalyzerRaw(a, pkg)
			if err != nil {
				return err
			}
			diags = append(diags, ds...)
			ran = append(ran, a.Name)
		}
		results = append(results, analysis.Apply(fset, pkg.Files, diags, ran)...)
	}
	sort.SliceStable(results, func(i, j int) bool {
		pi, pj := fset.Position(results[i].Diag.Pos), fset.Position(results[j].Diag.Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return results[i].Diag.Analyzer < results[j].Diag.Analyzer
	})
	unsuppressed := 0
	enc := json.NewEncoder(os.Stdout)
	for _, r := range results {
		pos := fset.Position(r.Diag.Pos)
		if jsonOut {
			if err := enc.Encode(jsonFinding{
				File:       pos.Filename,
				Line:       pos.Line,
				Col:        pos.Column,
				Analyzer:   r.Diag.Analyzer,
				Message:    r.Diag.Message,
				Suppressed: r.Suppressed,
			}); err != nil {
				return err
			}
		} else if !r.Suppressed {
			fmt.Printf("%s: %s: %s\n", pos, r.Diag.Analyzer, r.Diag.Message)
		}
		if !r.Suppressed {
			unsuppressed++
		}
	}
	if unsuppressed > 0 {
		if !jsonOut {
			fmt.Printf("dtmlint: %d finding(s)\n", unsuppressed)
		}
		os.Exit(1)
	}
	return nil
}
