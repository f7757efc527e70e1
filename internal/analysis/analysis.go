// Package analysis is dtmlint's self-contained static-analysis framework:
// a minimal, stdlib-only reimplementation of the golang.org/x/tools
// go/analysis surface (Analyzer / Pass / Diagnostic) plus a module loader
// and a //lint:ignore suppression mechanism.
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
//     (simulation time and explicitly seeded sources only);
//   - gosites: goroutines start only at the allowlisted sites (the tree
//     warm-up and the sweep runner's pool);
//   - obsnames: every obs metric name resolves to the string-constant
//     registry in internal/obs/names.go (no typo-class drift).
//
// A finding can be suppressed with a justified directive on the same or
// the preceding line:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a bare directive is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings and //lint:ignore
	// directives.
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

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Pos
	line      int
	analyzers map[string]bool
	malformed string // non-empty if the directive is unusable
}

const ignorePrefix = "//lint:ignore"

// parseDirectives extracts the //lint:ignore directives from a file.
func parseDirectives(fset *token.FileSet, file *ast.File) []ignoreDirective {
	var ds []ignoreDirective
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ignorePrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // some other //lint:ignoreXxx comment
			}
			fields := strings.Fields(rest)
			d := ignoreDirective{pos: c.Pos(), line: fset.Position(c.Pos()).Line}
			if len(fields) < 2 {
				d.malformed = "//lint:ignore needs an analyzer name and a reason"
			} else {
				d.analyzers = make(map[string]bool)
				for _, name := range strings.Split(fields[0], ",") {
					d.analyzers[name] = true
				}
			}
			ds = append(ds, d)
		}
	}
	return ds
}

// Filter drops diagnostics covered by a //lint:ignore directive in files.
// A directive covers findings of the named analyzer(s) on its own line and
// on the following line (so it works both trailing the offending statement
// and on a line of its own above it). Malformed directives are surfaced as
// fresh diagnostics so a bare, unjustified ignore cannot pass the gate.
func Filter(fset *token.FileSet, files []*ast.File, diags []Diagnostic) []Diagnostic {
	type key struct {
		file string
		line int
	}
	covered := make(map[key]map[string]bool)
	var out []Diagnostic
	for _, f := range files {
		for _, d := range parseDirectives(fset, f) {
			if d.malformed != "" {
				out = append(out, Diagnostic{Pos: d.pos, Analyzer: "dtmlint", Message: d.malformed})
				continue
			}
			pos := fset.Position(d.pos)
			for _, line := range []int{d.line, d.line + 1} {
				k := key{file: pos.Filename, line: line}
				if covered[k] == nil {
					covered[k] = make(map[string]bool)
				}
				for name := range d.analyzers {
					covered[k][name] = true
				}
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if covered[key{pos.Filename, pos.Line}][d.Analyzer] {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos < out[j].Pos })
	return out
}

// RunAnalyzer runs a on pkg and returns its unsuppressed findings.
func RunAnalyzer(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
	diags, err := RunAnalyzerRaw(a, pkg)
	if err != nil {
		return nil, err
	}
	return Filter(pkg.Fset, pkg.Files, diags), nil
}

// RunAnalyzerRaw runs a on pkg and returns the raw findings, leaving
// suppression to the caller (drivers use Apply so suppressed findings
// stay visible to machine-readable output and stale directives are
// caught; Filter remains the one-shot path).
func RunAnalyzerRaw(a *Analyzer, pkg *Package) ([]Diagnostic, error) {
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

// Result is one finding plus its suppression state, as resolved by Apply.
type Result struct {
	Diag       Diagnostic
	Suppressed bool
}

// Apply resolves //lint:ignore suppression over one package's combined
// findings. Unlike Filter it keeps suppressed findings (marked) so
// drivers can surface them in machine-readable output, reports each
// malformed directive exactly once rather than once per analyzer, and
// reports stale directives: a directive whose named analyzers all ran on
// the package (the ran list) yet which suppressed nothing no longer
// earns its keep and is itself a finding, so justified exceptions cannot
// rot silently after the code they excuse moves or heals.
func Apply(fset *token.FileSet, files []*ast.File, diags []Diagnostic, ran []string) []Result {
	type key struct {
		file string
		line int
	}
	ranSet := make(map[string]bool, len(ran))
	for _, name := range ran {
		ranSet[name] = true
	}
	type liveDirective struct {
		d    ignoreDirective
		file string
		used bool
	}
	covered := make(map[key][]*liveDirective)
	var directives []*liveDirective
	var out []Result
	for _, f := range files {
		for _, d := range parseDirectives(fset, f) {
			if d.malformed != "" {
				out = append(out, Result{Diag: Diagnostic{Pos: d.pos, Analyzer: "dtmlint", Message: d.malformed}})
				continue
			}
			ld := &liveDirective{d: d, file: fset.Position(d.pos).Filename}
			directives = append(directives, ld)
			for _, line := range []int{d.line, d.line + 1} {
				k := key{file: ld.file, line: line}
				covered[k] = append(covered[k], ld)
			}
		}
	}
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for _, ld := range covered[key{pos.Filename, pos.Line}] {
			if ld.d.analyzers[d.Analyzer] {
				ld.used = true
				suppressed = true
			}
		}
		out = append(out, Result{Diag: d, Suppressed: suppressed})
	}
	for _, ld := range directives {
		if ld.used {
			continue
		}
		// Staleness is only decidable when every named analyzer actually
		// ran on this package; a directive for an analyzer the driver
		// skipped (AppliesTo) might suppress a real finding elsewhere.
		decidable := true
		names := make([]string, 0, len(ld.d.analyzers))
		for name := range ld.d.analyzers {
			names = append(names, name)
			if !ranSet[name] {
				decidable = false
			}
		}
		if !decidable {
			continue
		}
		sort.Strings(names)
		out = append(out, Result{Diag: Diagnostic{
			Pos:      ld.d.pos,
			Analyzer: "dtmlint",
			Message:  fmt.Sprintf("stale //lint:ignore %s directive: it suppresses no finding", strings.Join(names, ",")),
		}})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Diag.Pos < out[j].Diag.Pos })
	return out
}
