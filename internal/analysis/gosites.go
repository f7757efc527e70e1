package analysis

import (
	"go/ast"
	"go/types"
)

// Gosites reports every go statement outside an allowlisted function.
// Runs are byte-identical at every worker count because the module
// starts goroutines in exactly two places: the shortest-path tree
// warm-up, which builds trees no query can tell apart from lazily built
// ones, and the sweep runner's pool, which lands each trial in its own
// slot. `make race` and the identity suites check both. A new goroutine
// site needs an allowlist entry, so it shows up in its own diff.
var Gosites = &Analyzer{
	Name: "gosites",
	Doc: "forbid go statements outside the allowlisted goroutine sites " +
		"((*graph.Graph).WarmTrees and runner.Sweep.Run)",
	AppliesTo: func(string) bool { return true },
	Run:       runGosites,
}

// goSites are the functions allowed to start goroutines, by
// types.Func.FullName.
var goSites = map[string]bool{
	"(*dtm/internal/graph.Graph).WarmTrees": true,
	"(dtm/internal/runner.Sweep).Run":       true,
}

func runGosites(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			site := "a package-level func literal"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
				if fn != nil && goSites[fn.FullName()] {
					continue
				}
				site = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(),
						"go statement in %s, which is not an allowlisted goroutine site: run the work sequentially, or add the function to gosites' allowlist with a race test",
						site)
				}
				return true
			})
		}
	}
	return nil
}
