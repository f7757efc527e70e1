package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Poolreturn reports function bodies that acquire pooled scratch — a
// depgraph.GetScratch() call or a sync.Pool Get — and can reach a return
// without releasing it (Scratch.Release, or Pool.Put). Leaked scratch is
// not a memory-safety bug (the GC reclaims it) but it silently defeats
// the arena reuse the depgraph engine's allocation numbers rest on, and
// under the parallel sweep runner it turns the shared pool into an
// allocation treadmill.
//
// The check tracks acquisitions bound to a local variable or to a single
// field of a locally built struct (the sched drivers populate Env.Scratch
// this way). A deferred release dominates every return path; otherwise
// each return after the acquisition must be preceded by a release. Values
// that escape (stored into fields of escaping objects, returned, or
// passed onwards) transfer ownership and are skipped.
var Poolreturn = &Analyzer{
	Name: "poolreturn",
	Doc: "require pooled scratch (depgraph.GetScratch / sync.Pool Get) to be " +
		"released on every return path of the acquiring function",
	AppliesTo: func(pkgPath string) bool {
		return pkgPath == "dtm" || strings.HasPrefix(pkgPath, "dtm/internal/") ||
			strings.HasPrefix(pkgPath, "dtm/cmd/")
	},
	Run: runPoolreturn,
}

func runPoolreturn(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkPoolFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkPoolFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// acquisition is one tracked pooled-scratch binding: either a plain local
// (`sc := GetScratch()`) or a field of a local composite
// (`env := &Env{Scratch: GetScratch()}` → obj=env, field="Scratch").
type acquisition struct {
	pos   token.Pos
	obj   types.Object
	field string // empty for a plain local binding
	what  string // human label for the report
}

// checkPoolFunc analyzes one function body. Nested function literals are
// analyzed on their own traversal and skipped here.
func checkPoolFunc(pass *Pass, body *ast.BlockStmt) {
	var acqs []acquisition
	walkShallow(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return
		}
		for i, rhs := range as.Rhs {
			what, ok := acquireCall(pass, rhs)
			if ok {
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.Info.ObjectOf(id); obj != nil && insideNode(body, obj.Pos()) {
						acqs = append(acqs, acquisition{pos: rhs.Pos(), obj: obj, what: what})
					}
				}
				continue
			}
			// Acquisition nested one level down in a composite literal
			// bound to a local: env := &Env{..., Scratch: GetScratch()}.
			if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				obj := pass.Info.ObjectOf(id)
				if obj == nil || !insideNode(body, obj.Pos()) {
					continue
				}
				for _, fa := range compositeAcquires(pass, rhs) {
					acqs = append(acqs, acquisition{pos: fa.pos, obj: obj, field: fa.field, what: fa.what})
				}
			}
		}
	})
	for _, acq := range acqs {
		checkAcquisition(pass, body, acq)
	}
}

// fieldAcquire is a pooled acquire sitting in a composite literal field.
type fieldAcquire struct {
	field string
	pos   token.Pos
	what  string
}

// compositeAcquires collects the pooled acquires sitting directly in a
// composite literal's field values.
func compositeAcquires(pass *Pass, e ast.Expr) []fieldAcquire {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = u.X
	}
	cl, ok := e.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	var out []fieldAcquire
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		if what, ok := acquireCall(pass, kv.Value); ok {
			out = append(out, fieldAcquire{field: key.Name, pos: kv.Value.Pos(), what: what})
		}
	}
	return out
}

// acquireCall reports whether e is a pooled-scratch acquisition call
// (unwrapping one type assertion, the sync.Pool.Get idiom).
func acquireCall(pass *Pass, e ast.Expr) (string, bool) {
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	var fn *types.Func
	if ok {
		fn, _ = pass.Info.Uses[sel.Sel].(*types.Func)
	} else if id, ok := call.Fun.(*ast.Ident); ok {
		fn, _ = pass.Info.Uses[id].(*types.Func)
	}
	if fn == nil {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if sig.Recv() == nil && fn.Name() == "GetScratch" {
		return "GetScratch()", true
	}
	if sig.Recv() != nil && fn.Name() == "Get" && isSyncPoolRecv(sig.Recv().Type()) {
		return "sync.Pool Get", true
	}
	return "", false
}

func isSyncPoolRecv(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Pool" && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync"
}

// checkAcquisition verifies one acquisition is released on every path.
func checkAcquisition(pass *Pass, body *ast.BlockStmt, acq acquisition) {
	var (
		deferred bool
		releases []token.Pos
		returns  []token.Pos
		escapes  bool
	)
	walkShallow(body, func(n ast.Node) {
		switch stmt := n.(type) {
		case *ast.DeferStmt:
			if isReleaseCall(pass, stmt.Call, acq) {
				deferred = true
			}
		case *ast.ExprStmt:
			if call, ok := stmt.X.(*ast.CallExpr); ok && isReleaseCall(pass, call, acq) {
				releases = append(releases, call.Pos())
			}
		case *ast.ReturnStmt:
			if stmt.Pos() > acq.pos {
				returns = append(returns, stmt.Pos())
			}
			for _, res := range stmt.Results {
				if refersTo(pass, res, acq) {
					escapes = true
				}
			}
		case *ast.AssignStmt:
			// Ownership transfer: the tracked value stored somewhere that
			// outlives the call (field, map, global, captured variable).
			for i, rhs := range stmt.Rhs {
				if i >= len(stmt.Lhs) || !refersTo(pass, rhs, acq) {
					continue
				}
				if _, isIdent := stmt.Lhs[i].(*ast.Ident); !isIdent {
					escapes = true
				} else if id := stmt.Lhs[i].(*ast.Ident); id.Name != "_" {
					if obj := pass.Info.ObjectOf(id); obj == nil || !insideNode(body, obj.Pos()) {
						escapes = true
					}
				}
			}
		}
	})
	if escapes || deferred {
		return
	}
	report := func(pos token.Pos, detail string) {
		pass.Reportf(acq.pos,
			"pooled scratch from %s is not released on every return path (%s); defer its Release/Put right after acquiring",
			acq.what, detail)
	}
	if len(releases) == 0 {
		report(acq.pos, "no Release/Put in this function")
		return
	}
	for _, ret := range returns {
		ok := false
		for _, rel := range releases {
			if rel > acq.pos && rel < ret {
				ok = true
				break
			}
		}
		if !ok {
			report(ret, "return at "+pass.Fset.Position(ret).String()+" precedes the release")
			return
		}
	}
}

// isReleaseCall reports whether call releases the tracked acquisition:
// x.Release() / x.F.Release() on the tracked binding, or pool.Put(x).
func isReleaseCall(pass *Pass, call *ast.CallExpr, acq acquisition) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if sel.Sel.Name == "Release" && refersTo(pass, sel.X, acq) {
			return true
		}
		if sel.Sel.Name == "Put" {
			for _, arg := range call.Args {
				if refersTo(pass, arg, acq) {
					return true
				}
			}
		}
	}
	return false
}

// refersTo reports whether e denotes the tracked binding: the bare ident
// for a plain binding, or obj.field for a composite-field binding.
func refersTo(pass *Pass, e ast.Expr, acq acquisition) bool {
	if acq.field == "" {
		id, ok := e.(*ast.Ident)
		return ok && pass.Info.ObjectOf(id) == acq.obj
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != acq.field {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && pass.Info.ObjectOf(id) == acq.obj
}

// walkShallow visits every node in body except the interiors of nested
// function literals (those are separate functions with their own paths).
func walkShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
