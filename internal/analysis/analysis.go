// Package analysis is dtmlint's self-contained static-analysis framework:
// a minimal, stdlib-only reimplementation of the golang.org/x/tools
// go/analysis surface (Analyzer / Pass / Diagnostic) plus a module loader.
//
// The module deliberately has no external dependencies (the obs layer
// makes the same choice), so the framework builds on go/parser and
// go/types alone: packages are parsed and type-checked in import order,
// with stdlib imports resolved through the compiler's export data (and a
// source-importer fallback). The analyzers it hosts machine-check the
// invariants the reproduction's byte-identical decision logs rest on:
//
//   - detrange: no order-dependent sinks fed from unsorted map iteration
//     anywhere in the module (schedule determinism);
//   - detclock: no wall-clock or global math/rand in engine packages
//     (simulation time and explicitly seeded sources only), outside the
//     functions on its allowlist;
//   - gosites: goroutines start only at the allowlisted sites (the tree
//     warm-up and the sweep runner's pool).
//
// There is no suppression comment. An exception is an allowlist entry in
// the analyzer's source (detclock's clockSites, gosites' goSites), named
// by the function's full path, so each one shows up in its own diff.
// Metric names need no analyzer: obs.Name can only be built inside
// package obs, so an unregistered name does not compile.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings.
	Name string
	// Doc is a one-paragraph description of the guarded invariant.
	Doc string
	// AppliesTo reports whether the analyzer should run on the package
	// with the given import path. A nil AppliesTo means every package.
	// Drivers consult it; test harnesses may bypass it to run analyzers
	// directly on fixtures.
	AppliesTo func(pkgPath string) bool
	// Run performs the analysis, reporting findings through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Diagnostic is one finding, positioned at Pos.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings reported so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diags }

// RunAnalyzer runs a on pkg and returns its findings.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer: a,
		Fset:     pkg.Fset,
		Files:    pkg.Files,
		Pkg:      pkg.Types,
		Info:     pkg.Info,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
	}
	return pass.Diagnostics(), nil
}
