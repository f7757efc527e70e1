package analysis

// parpurity proves the contract of internal/par at lint time: every
// closure handed to par.Runner.Map runs concurrently with its siblings, so
// it must treat shared state as read-only and stage its results into
// per-index slots; the caller owns every cross-slot write once Map
// returns. The check is interprocedural: a write two call levels below
// the closure is charged to the closure.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Parpurity checks that par.Runner.Map compute functions are write-pure.
var Parpurity = &Analyzer{
	Name: "parpurity",
	Doc:  "par.Runner.Map compute closures must stage writes into worker-owned memory (per-index slots) — no shared-state writes, channel sends, metric emission, or rand draws in a compute phase",
	AppliesTo: func(pkgPath string) bool {
		return pkgPath == "dtm" || strings.HasPrefix(pkgPath, "dtm/internal/") ||
			strings.HasPrefix(pkgPath, "dtm/cmd/")
	},
	Run: runParpurity,
}

func runParpurity(pass *Pass) error {
	st, err := purityOf(pass)
	if err != nil {
		return err
	}
	checked := make(map[*funcNode]bool)
	for _, n := range st.nodes {
		if n.pkg.Types != pass.Pkg || n.fr == nil {
			continue
		}
		ast.Inspect(n.body, func(node ast.Node) bool {
			if _, isLit := node.(*ast.FuncLit); isLit {
				return false // literals are their own nodes in st.nodes
			}
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !st.isMapCall(n.pkg, call) || len(call.Args) < 2 {
				return true
			}
			target := st.resolveComputeFn(n.fr, call.Args[1])
			if target == nil {
				pass.Reportf(call.Args[1].Pos(),
					"cannot resolve the compute function passed to par.Runner.Map; pass a func literal or a declared function so parpurity can verify it")
				return true
			}
			if !checked[target] {
				checked[target] = true
				for _, pf := range st.checkComputeFn(target) {
					pass.Reportf(pf.pos, "%s", pf.msg)
				}
			}
			return true
		})
	}
	st.reportOwnedDirectives(pass)
	return nil
}

// isMapCall reports whether call invokes (*par.Runner).Map.
func (st *purityState) isMapCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Map" {
		return false
	}
	fn := st.staticCallee(pkg.Info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "dtm/internal/par" && fn.Name() == "Map"
}

// resolveComputeFn resolves the function expression handed to Map to its
// call-graph node: a literal, a local variable bound to a literal, or a
// declared function/method.
func (st *purityState) resolveComputeFn(fr *frame, e ast.Expr) *funcNode {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.FuncLit:
		return st.byLit[x]
	case *ast.Ident:
		info := fr.node.pkg.Info
		switch obj := info.Uses[x].(type) {
		case *types.Var:
			for f := fr; f != nil; f = enclosingFrame(f) {
				if ln, ok := f.lits[obj]; ok {
					return ln
				}
			}
		case *types.Func:
			return st.funcs[origin(obj)]
		}
	case *ast.SelectorExpr:
		info := fr.node.pkg.Info
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return st.funcs[origin(fn)]
			}
			return nil
		}
		if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
			return st.funcs[origin(fn)]
		}
	}
	return nil
}

// purityFinding is one violation inside a checked compute function.
type purityFinding struct {
	pos token.Pos
	msg string
}

// checkComputeFn reports every effect of a compute function that the
// contract does not allow: its own atoms (already blessed/filtered at
// collection time) plus its callees' summaries translated through each
// call site. Slot writes indexed by the closure's own parameters are the
// allowed staging pattern and drop out here.
func (st *purityState) checkComputeFn(n *funcNode) []purityFinding {
	var out []purityFinding
	for _, a := range n.atoms {
		if !reportableInCompute(a) {
			continue
		}
		out = append(out, purityFinding{a.wit.pos, st.describe(a, "")})
	}
	for i := range n.calls {
		ca := &n.calls[i]
		if ca.callee == nil {
			continue
		}
		var bad []effect
		for _, e := range ca.callee.sum {
			pe, keep := st.propagate(e, ca, n)
			if keep && reportableInCompute(pe) {
				bad = append(bad, pe)
			}
		}
		if len(bad) == 0 {
			continue
		}
		// A //par:owned at the call site blesses the whole call.
		if st.bless(ca.pos, ca.cands) {
			continue
		}
		for _, pe := range bad {
			out = append(out, purityFinding{ca.pos, st.describe(pe, ca.what)})
		}
	}
	return out
}

// reportableInCompute decides whether a surviving effect violates the
// compute/merge contract.
func reportableInCompute(e effect) bool {
	if e.kind == effSlot {
		return false // per-slot staging is the sanctioned write pattern
	}
	if e.target.kind == clFresh {
		return false
	}
	return true
}

// describe renders one finding message; via names the call that imported
// the effect, the witness names the ultimate site.
func (st *purityState) describe(e effect, via string) string {
	var msg string
	switch e.kind {
	case effVar:
		msg = fmt.Sprintf("assignment to captured variable %s in a compute phase; stage results in a slot or scratch and merge instead", e.wit.what)
	case effChan:
		msg = fmt.Sprintf("channel send on %s in a compute phase; compute closures must not communicate", e.wit.what)
	case effMetric:
		msg = fmt.Sprintf("metric emission (%s) in a compute phase; emit from the merge phase so counts are schedule-independent", e.wit.what)
	case effRand:
		msg = fmt.Sprintf("rand draw (%s) in a compute phase; draw order is scheduling-dependent", e.wit.what)
	case effPool:
		msg = fmt.Sprintf("sync.Pool traffic (%s) in a compute phase; acquire scratch before the fan-out", e.wit.what)
	default:
		msg = fmt.Sprintf("write to %s (%s) is not worker-owned; compute closures may only write locals or param-indexed slots", e.wit.what, e.target)
	}
	if via != "" {
		msg = fmt.Sprintf("call to %s reaches a compute-phase violation: %s (at %s)", via, msg, st.fset.Position(e.wit.pos))
	}
	return msg
}

// reportOwnedDirectives surfaces malformed and stale //par:owned
// directives in the pass's package: an escape hatch that no longer
// excuses anything must be deleted, not inherited.
func (st *purityState) reportOwnedDirectives(pass *Pass) {
	inPkg := make(map[string]bool, len(pass.Files))
	for _, f := range pass.Files {
		inPkg[pass.Fset.Position(f.Pos()).Filename] = true
	}
	var ds []*ownedDirective
	for _, d := range st.ownedAll {
		if inPkg[d.file] {
			ds = append(ds, d)
		}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i].pos < ds[j].pos })
	for _, d := range ds {
		switch {
		case d.malformed != "":
			pass.Reportf(d.pos, "%s", d.malformed)
		case !d.used:
			pass.Reportf(d.pos, "stale //par:owned %s directive: it blesses no write reachable from a compute phase", d.expr)
		}
	}
}
