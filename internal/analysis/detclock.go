package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detclock reports wall-clock reads and global math/rand use in engine
// packages. Engine code must advance only on simulation time (core.Time)
// and draw randomness only from explicitly seeded sources (rand.New with
// a seeded rand.NewSource, or the splitmix64 hashing in distnet), or two
// runs of the same instance can diverge and the byte-identical decision
// log guarantee (and with it the Theorem 1/2/4 audits) is void.
//
// The runner and cmd/ front-ends legitimately time wall-clock spans and
// are outside the analyzer's scope. Inside it, a function may read the
// clock only from the clockSites allowlist.
var Detclock = &Analyzer{
	Name: "detclock",
	Doc: "forbid time.Now/Since and unseeded global math/rand in engine packages; " +
		"engine code runs on simulation time and seeded sources only",
	AppliesTo: func(pkgPath string) bool {
		if pkgPath == "dtm" {
			return true
		}
		if !strings.HasPrefix(pkgPath, "dtm/internal/") {
			return false
		}
		// The sweep runner times wall-clock spans by design.
		return pkgPath != "dtm/internal/runner"
	},
	Run: runDetclock,
}

// clockSites are the engine-side functions allowed to read the wall
// clock, by types.Func.FullName. takeSnapshot times itself into the
// sched.snapshot_ns histogram; no decision reads it, and the golden
// tests drop it from every compared snapshot.
var clockSites = map[string]bool{
	"dtm/internal/sched.takeSnapshot": true,
}

// forbiddenTimeFuncs are the wall-clock entry points of package time.
// Types and constants (time.Duration, time.Millisecond) stay legal.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

// allowedRandFuncs are the math/rand and math/rand/v2 package-level
// constructors that bind an explicit seed — the pattern the streaming
// workload generators (workload.NewPoissonSource and friends) follow;
// everything else at package level draws from the global source.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

// forbiddenTimeMethods are wall-clock methods: re-arming a Ticker or
// Timer schedules a wall-clock firing just like constructing one.
// (Stop stays legal — it only cancels.)
var forbiddenTimeMethods = map[string]bool{
	"Ticker.Reset": true, "Timer.Reset": true,
}

func runDetclock(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if fn, _ := pass.Info.Defs[fd.Name].(*types.Func); fn != nil && clockSites[fn.FullName()] {
					continue
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				checkClockUse(pass, n)
				return true
			})
		}
	}
	return nil
}

// checkClockUse reports n if it selects a wall-clock function or method,
// or a draw from the global math/rand source.
func checkClockUse(pass *Pass, n ast.Node) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	if sig.Recv() != nil {
		// Methods on a seeded *rand.Rand are fine; re-arming
		// time.Ticker/time.Timer is a wall-clock schedule.
		if fn.Pkg().Path() == "time" && forbiddenTimeMethods[recvTypeName(sig)+"."+fn.Name()] {
			pass.Reportf(sel.Pos(),
				"wall-clock time.%s.%s in engine package %s: %s",
				recvTypeName(sig), fn.Name(), pass.Pkg.Path(), clockAdvice)
		}
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if forbiddenTimeFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"wall-clock time.%s in engine package %s: %s",
				fn.Name(), pass.Pkg.Path(), clockAdvice)
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			pass.Reportf(sel.Pos(),
				"global math/rand source via rand.%s in engine package %s: use a seeded rand.New(rand.NewSource(seed)) so runs replay byte-identically",
				fn.Name(), pass.Pkg.Path())
		}
	}
}

// clockAdvice ends every wall-clock finding.
const clockAdvice = "engine code runs on simulation time (core.Time); move the read to runner/cmd, " +
	"or, if no decision reads it, add the function to detclock's allowlist"

// recvTypeName names a method's receiver type, pointer stripped.
func recvTypeName(sig *types.Signature) string {
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
