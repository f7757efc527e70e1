package analysis

import (
	"go/ast"
	"go/types"
)

// Enginereg reports direct engine constructions outside the registry.
// Every scheduling engine (greedy, bucket, window, and the distributed
// protocol) must be built through dtm/internal/engine, whose
// Desc table is the single source of truth for engine IDs, aliases, and
// capability flags: the diff/par/stream test matrices, the dtmsim
// `-sched list` output, and the README engine table are all derived from
// it. A construction that bypasses the registry is an engine the
// capability-driven machinery silently never sees.
//
// The engine's own package is exempt (it constructs itself), and so is
// dtm/internal/engine (the registry is the one place allowed to call the
// concrete constructors). Feature-knob option structs (greedy.Options,
// bucket.Options, distbucket.Options) stay legal everywhere — only the
// constructor calls are pinned. A deliberate bypass needs a
// //lint:ignore enginereg justification.
var Enginereg = &Analyzer{
	Name: "enginereg",
	Doc: "forbid direct engine constructor calls (greedy.New, greedy.NewCoordinator, " +
		"bucket.New, window.New, distbucket.New) outside dtm/internal/engine; " +
		"construct engines through the registry",
	AppliesTo: func(pkgPath string) bool {
		// The registry package is the one legal construction site.
		return pkgPath != "dtm/internal/engine"
	},
	Run: runEnginereg,
}

// engineConstructorPkgs are the packages whose exported constructors are
// pinned to the registry.
var engineConstructorPkgs = map[string]bool{
	"dtm/internal/greedy":     true,
	"dtm/internal/bucket":     true,
	"dtm/internal/window":     true,
	"dtm/internal/distbucket": true,
}

// engineConstructorNames are the constructor spellings across the engine
// packages. Option and type references are deliberately not constructors.
var engineConstructorNames = map[string]bool{
	"New": true, "NewCoordinator": true,
}

func runEnginereg(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true // methods are not constructors
			}
			pkg := fn.Pkg().Path()
			if !engineConstructorPkgs[pkg] || !engineConstructorNames[fn.Name()] {
				return true
			}
			if pass.Pkg.Path() == pkg {
				return true // an engine may construct itself
			}
			pass.Reportf(sel.Pos(),
				"direct engine construction %s.%s in package %s: build engines through dtm/internal/engine (engine.New* or a registry Desc) so capability metadata stays accurate; justify bypasses with //lint:ignore enginereg",
				fn.Pkg().Name(), fn.Name(), pass.Pkg.Path())
			return true
		})
	}
	return nil
}
