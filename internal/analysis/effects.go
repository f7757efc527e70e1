package analysis

// effects.go is the interprocedural write-effect machinery behind the
// parpurity analyzer: a call graph over every function and closure in the
// module, per-function effect summaries computed by a fixpoint over
// strongly connected components, and the //par:owned escape hatch.
//
// The unit of reasoning is the ownership class of an expression — where
// does the memory a write lands in come from, relative to the frame doing
// the writing?
//
//	clFresh    allocated by this frame (composite literals, make/new,
//	           calls proven to return only fresh memory, a scratch set
//	           from GetScratch) — writes are invisible outside the frame
//	clRecv     reached through the method receiver
//	clParam    reached through parameter k
//	clCaptured reached through a variable of an enclosing function
//	clGlobal   a package-level variable
//	clShared   anything else (unknown provenance)
//
// A function's summary is the set of effects it may perform, expressed
// relative to its own frame: writes into each class, assignments to
// captured variables, per-slot writes (base[i] where i is a parameter —
// the staging pattern the compute/merge contract allows), channel sends,
// and calls into effectful APIs (obs metric emission, math/rand draws,
// sync.Pool traffic). At a call site the callee's summary is translated
// through the argument/receiver classes of the call, so an effect two or
// more levels down surfaces at the closure that ultimately commits it.
//
// Effects whose translated target is fresh vanish: mutating memory you
// allocated is not an effect. Everything else survives to the checked
// compute closure, where parpurity reports it unless a //par:owned
// directive blesses the specific target expression.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// classKind is the ownership lattice for write targets.
type classKind int

const (
	clShared classKind = iota
	clFresh
	clRecv
	clParam
	clCaptured
	clGlobal
)

// class is one point of the ownership lattice: the kind plus, where it
// matters, which parameter or which variable the target derives from.
type class struct {
	kind  classKind
	param int          // for clParam
	obj   types.Object // for clCaptured and clGlobal
}

func (c class) String() string {
	switch c.kind {
	case clShared:
		return "shared"
	case clFresh:
		return "fresh"
	case clRecv:
		return "receiver"
	case clParam:
		return fmt.Sprintf("param %d", c.param)
	case clCaptured:
		return "captured " + c.obj.Name()
	case clGlobal:
		return "global " + c.obj.Name()
	}
	return "?"
}

// effKind enumerates the effect summary entries.
type effKind int

const (
	effWrite  effKind = iota // store through a pointer/slice/map/field target
	effVar                   // assignment to a variable of an enclosing frame
	effSlot                  // base[i] = v where i is a parameter: slot staging
	effChan                  // channel send or close
	effMetric                // obs metric emission
	effRand                  // math/rand draw outside a seeded source
	effPool                  // sync.Pool Get/Put
)

// witness pins an effect to the source position and expression that
// introduced it, surviving translation through call sites so a finding on
// a call can say where, transitively, the write happens.
type witness struct {
	pos  token.Pos
	what string
}

// effect is one entry of a function's summary, frame-relative.
type effect struct {
	kind      effKind
	target    class
	slotParam int // for effSlot: which parameter indexes the slot
	wit       witness
}

// effKeyOf dedups summary entries; the witness is representative, not
// identity.
func effKeyOf(e effect) string {
	return fmt.Sprintf("%d|%d|%d|%p|%d", e.kind, e.target.kind, e.target.param, e.target.obj, e.slotParam)
}

// callAtom is one resolved intramodule call site: the callee node plus
// the ownership classes flowing into its receiver and parameters.
type callAtom struct {
	callee *funcNode
	recv   class
	args   []class
	argPar []int // caller parameter index if arg i is a bare parameter ident, else -1
	pos    token.Pos
	what   string
	cands  []string // //par:owned match candidates for blessing the whole call
}

// funcNode is one function or function literal in the module call graph.
type funcNode struct {
	pkg       *Package
	name      string
	obj       types.Object // *types.Func for declared functions, nil for literals
	ftype     *ast.FuncType
	recvField *ast.FieldList
	body      *ast.BlockStmt
	enclosing *funcNode // lexically enclosing function, for literals

	fr         *frame
	paramCount int
	atoms      []effect // own direct effects, blessing already applied
	calls      []callAtom
	sum        []effect // fixpoint summary including callees
	retFresh   bool     // all pointer-like results derive from fresh memory
}

// frame is a function's view of its own variables.
type frame struct {
	node       *funcNode
	start, end token.Pos
	recv       types.Object
	params     map[types.Object]int
	locals     map[types.Object]class
	lits       map[types.Object]*funcNode // local name -> bound function literal
}

// owns reports whether obj is declared inside this frame (parameters,
// receiver, results, and locals all fall in the declaration's range;
// variables of nested literals cannot be referenced from outside them).
func (fr *frame) owns(obj types.Object) bool {
	return obj.Pos() >= fr.start && obj.Pos() <= fr.end
}

// valueClass is the ownership class of the memory reachable through one
// of the frame's own variables.
func (fr *frame) valueClass(obj types.Object) class {
	if obj == fr.recv {
		return class{kind: clRecv}
	}
	if k, ok := fr.params[obj]; ok {
		if pointerLike(obj.Type()) {
			return class{kind: clParam, param: k}
		}
		return class{kind: clFresh} // a value copy belongs to this frame
	}
	if c, ok := fr.locals[obj]; ok {
		return c
	}
	return class{kind: clShared}
}

// ownedDirective is one parsed //par:owned <expr> <reason> comment.
type ownedDirective struct {
	pos       token.Pos
	file      string
	line      int
	expr      string
	malformed string
	used      bool
}

const ownedPrefix = "//par:owned"

// purityState is the module-wide result of the effect analysis, built
// once per dtmlint process and shared by every parpurity package pass.
type purityState struct {
	mod   *Module
	fset  *token.FileSet
	funcs map[types.Object]*funcNode
	byLit map[*ast.FuncLit]*funcNode
	nodes []*funcNode // deterministic order: package, file, declaration

	owned    map[string]map[int][]*ownedDirective // file -> line -> directives
	ownedAll []*ownedDirective
}

const purityStateKey = "parpurity.effects"

// purityOf returns the module's effect analysis, building it on first use.
func purityOf(pass *Pass) (*purityState, error) {
	v, err := pass.Mod.State(purityStateKey, func() (any, error) {
		return buildPurityState(pass.Mod, pass.Fset)
	})
	if err != nil {
		return nil, err
	}
	return v.(*purityState), nil
}

func buildPurityState(mod *Module, fset *token.FileSet) (*purityState, error) {
	st := &purityState{
		mod:   mod,
		fset:  fset,
		funcs: make(map[types.Object]*funcNode),
		byLit: make(map[*ast.FuncLit]*funcNode),
		owned: make(map[string]map[int][]*ownedDirective),
	}
	for _, pkg := range mod.Pkgs {
		for _, f := range pkg.Files {
			st.parseOwned(f)
			st.registerFile(pkg, f)
		}
	}
	// Frames and return-freshness feed each other (a local's class may
	// come from a call whose freshness depends on its own locals), so
	// iterate to a fixpoint; freshness only ever improves, so this
	// terminates quickly.
	for {
		changed := false
		for _, n := range st.nodes {
			st.buildFrame(n)
		}
		for _, n := range st.nodes {
			if rf := st.computeRetFresh(n); rf != n.retFresh {
				n.retFresh = rf
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	for _, n := range st.nodes {
		st.collectAtoms(n)
	}
	st.computeSummaries()
	return st, nil
}

// parseOwned extracts //par:owned directives from one file.
func (st *purityState) parseOwned(f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ownedPrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, ownedPrefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			p := st.fset.Position(c.Pos())
			d := &ownedDirective{pos: c.Pos(), file: p.Filename, line: p.Line}
			fields := strings.Fields(rest)
			if len(fields) < 2 {
				d.malformed = "//par:owned needs a target expression and a reason"
			} else {
				d.expr = fields[0]
			}
			if st.owned[d.file] == nil {
				st.owned[d.file] = make(map[int][]*ownedDirective)
			}
			st.owned[d.file][d.line] = append(st.owned[d.file][d.line], d)
			st.ownedAll = append(st.ownedAll, d)
		}
	}
}

// bless consumes a //par:owned directive covering pos (same or preceding
// line) whose expression matches one of the candidate spellings.
func (st *purityState) bless(pos token.Pos, cands []string) bool {
	p := st.fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		for _, d := range st.owned[p.Filename][line] {
			if d.malformed != "" {
				continue
			}
			for _, c := range cands {
				if c == d.expr {
					d.used = true
					return true
				}
			}
		}
	}
	return false
}

// exprCandidates returns the spellings a //par:owned directive may use to
// name e: the expression itself and every selector/index prefix of it, so
// `//par:owned g.trees <reason>` blesses a write to g.trees[src].
func exprCandidates(e ast.Expr) []string {
	var out []string
	for {
		e = ast.Unparen(e)
		out = append(out, types.ExprString(e))
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return out
		}
	}
}

// registerFile adds every declared function and (recursively) every
// function literal in f to the call graph.
func (st *purityState) registerFile(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Body == nil {
				continue
			}
			n := &funcNode{
				pkg:       pkg,
				name:      declName(d),
				obj:       pkg.Info.Defs[d.Name],
				ftype:     d.Type,
				recvField: d.Recv,
				body:      d.Body,
			}
			if n.obj != nil {
				st.funcs[n.obj] = n
			}
			st.nodes = append(st.nodes, n)
			st.registerLits(pkg, n, d.Body)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st.registerLits(pkg, nil, v)
					}
				}
			}
		}
	}
}

func declName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(" + types.ExprString(d.Recv.List[0].Type) + ")." + d.Name.Name
}

// registerLits walks root (which is not itself a FuncLit) registering
// nested function literals under their lexical parent.
func (st *purityState) registerLits(pkg *Package, parent *funcNode, root ast.Node) {
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		child := &funcNode{
			pkg:       pkg,
			name:      fmt.Sprintf("func literal at %s", st.fset.Position(lit.Pos())),
			ftype:     lit.Type,
			body:      lit.Body,
			enclosing: parent,
		}
		st.byLit[lit] = child
		st.nodes = append(st.nodes, child)
		st.registerLits(pkg, child, lit.Body)
		return false
	})
}

// buildFrame computes n's variable classes in one forward pass, joining
// on reassignment (a variable that is ever non-fresh stays non-fresh).
func (st *purityState) buildFrame(n *funcNode) {
	fr := &frame{
		node:   n,
		start:  n.ftype.Pos(),
		end:    n.body.End(),
		params: make(map[types.Object]int),
		locals: make(map[types.Object]class),
		lits:   make(map[types.Object]*funcNode),
	}
	if n.recvField != nil && len(n.recvField.List) > 0 && len(n.recvField.List[0].Names) > 0 {
		fr.recv = n.pkg.Info.Defs[n.recvField.List[0].Names[0]]
		if fr.start > n.recvField.Pos() {
			fr.start = n.recvField.Pos()
		}
	}
	idx := 0
	for _, field := range n.ftype.Params.List {
		if len(field.Names) == 0 {
			idx++
			continue
		}
		for _, name := range field.Names {
			if obj := n.pkg.Info.Defs[name]; obj != nil {
				fr.params[obj] = idx
			}
			idx++
		}
	}
	n.paramCount = idx
	if n.ftype.Results != nil {
		for _, field := range n.ftype.Results.List {
			for _, name := range field.Names {
				if obj := n.pkg.Info.Defs[name]; obj != nil {
					fr.locals[obj] = class{kind: clFresh}
				}
			}
		}
	}
	n.fr = fr

	join := func(obj types.Object, c class) {
		if obj == nil {
			return
		}
		if old, ok := fr.locals[obj]; ok && old != c {
			fr.locals[obj] = class{kind: clShared}
			return
		}
		fr.locals[obj] = c
	}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := n.pkg.Info.Defs[id]
		if obj == nil {
			obj = n.pkg.Info.Uses[id]
		}
		if obj == nil || !fr.owns(obj) {
			return
		}
		if lit, isLit := ast.Unparen(rhs).(*ast.FuncLit); isLit {
			if ln := st.byLit[lit]; ln != nil {
				fr.lits[obj] = ln
			}
		}
		join(obj, st.classify(fr, rhs))
	}

	ast.Inspect(n.body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(s.Rhs) == len(s.Lhs) {
				for i := range s.Lhs {
					bind(s.Lhs[i], s.Rhs[i])
				}
			} else if len(s.Rhs) == 1 {
				for _, lhs := range s.Lhs {
					bind(lhs, s.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			if len(s.Values) == 0 {
				// var gr gathered: the zero value belongs to this frame.
				for _, name := range s.Names {
					if obj := n.pkg.Info.Defs[name]; obj != nil {
						fr.locals[obj] = class{kind: clFresh}
					}
				}
			} else if len(s.Values) == len(s.Names) {
				for i := range s.Names {
					bind(s.Names[i], s.Values[i])
				}
			} else {
				for _, name := range s.Names {
					bind(name, s.Values[0])
				}
			}
		case *ast.RangeStmt:
			base := st.classify(fr, s.X)
			if s.Key != nil {
				bindRangeVar(n.pkg, fr, s.Key, class{kind: clFresh}, join)
			}
			if s.Value != nil {
				vc := base
				if tv, ok := n.pkg.Info.Types[s.X]; ok && !pointerElem(tv.Type) {
					vc = class{kind: clFresh} // value copy per iteration
				}
				bindRangeVar(n.pkg, fr, s.Value, vc, join)
			}
		}
		return true
	})
}

func bindRangeVar(pkg *Package, fr *frame, e ast.Expr, c class, join func(types.Object, class)) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	obj := pkg.Info.Defs[id]
	if obj == nil {
		obj = pkg.Info.Uses[id]
	}
	if obj != nil && fr.owns(obj) {
		join(obj, c)
	}
}

// pointerElem reports whether ranging over t yields values that still
// alias the container (pointer, slice, map, interface elements).
func pointerElem(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return pointerLike(u.Elem())
	case *types.Array:
		return pointerLike(u.Elem())
	case *types.Map:
		return pointerLike(u.Elem())
	case *types.Chan:
		return pointerLike(u.Elem())
	case *types.Pointer: // *[N]T
		return true
	}
	return true
}

func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// computeRetFresh reports whether every pointer-like result of n derives
// from memory the function allocated itself.
func (st *purityState) computeRetFresh(n *funcNode) bool {
	if n.ftype.Results == nil || len(n.ftype.Results.List) == 0 {
		return true
	}
	fresh := true
	ast.Inspect(n.body, func(node ast.Node) bool {
		if !fresh {
			return false
		}
		switch s := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			if len(s.Results) == 0 {
				// Naked return: named results are locals; check their class.
				for _, field := range n.ftype.Results.List {
					for _, name := range field.Names {
						obj := n.pkg.Info.Defs[name]
						if obj != nil && pointerLike(obj.Type()) && fr_class(n, obj).kind != clFresh {
							fresh = false
						}
					}
				}
				return true
			}
			for _, r := range s.Results {
				tv, ok := n.pkg.Info.Types[r]
				if ok && !pointerLike(tv.Type) {
					continue
				}
				if c := st.classify(n.fr, r); c.kind != clFresh {
					fresh = false
				}
			}
		}
		return true
	})
	return fresh
}

func fr_class(n *funcNode, obj types.Object) class {
	if c, ok := n.fr.locals[obj]; ok {
		return c
	}
	return class{kind: clShared}
}

// classify resolves the ownership class of an expression's memory.
func (st *purityState) classify(fr *frame, e ast.Expr) class {
	info := fr.node.pkg.Info
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		obj := info.Uses[x]
		if obj == nil {
			obj = info.Defs[x]
		}
		return st.classifyObj(fr, obj)
	case *ast.SelectorExpr:
		if obj := info.Uses[x.Sel]; obj != nil {
			if v, ok := obj.(*types.Var); ok && pkgLevelVar(v) {
				return class{kind: clGlobal, obj: v}
			}
		}
		return st.classify(fr, x.X)
	case *ast.IndexExpr:
		if tv, ok := info.Types[x.X]; ok {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				return st.classify(fr, x.X) // generic instantiation
			}
		}
		return st.classify(fr, x.X)
	case *ast.IndexListExpr:
		return st.classify(fr, x.X)
	case *ast.StarExpr:
		return st.classify(fr, x.X)
	case *ast.SliceExpr:
		return st.classify(fr, x.X)
	case *ast.TypeAssertExpr:
		return st.classify(fr, x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			// &base[i] with a parameter index is the address of a slot this
			// call owns under the contract.
			if ix, ok := ast.Unparen(x.X).(*ast.IndexExpr); ok && st.isParamIdent(fr, ix.Index) >= 0 && sliceBase(info, ix) {
				return class{kind: clFresh}
			}
			return st.classify(fr, x.X)
		}
		if x.Op == token.ARROW {
			return class{kind: clShared}
		}
		return class{kind: clFresh}
	case *ast.CompositeLit, *ast.BasicLit, *ast.FuncLit:
		return class{kind: clFresh}
	case *ast.BinaryExpr:
		return class{kind: clFresh}
	case *ast.CallExpr:
		return st.classifyCall(fr, x)
	}
	return class{kind: clShared}
}

func (st *purityState) classifyObj(fr *frame, obj types.Object) class {
	switch o := obj.(type) {
	case nil:
		return class{kind: clShared}
	case *types.Const:
		return class{kind: clFresh}
	case *types.Func:
		return class{kind: clFresh}
	case *types.Var:
		if pkgLevelVar(o) {
			return class{kind: clGlobal, obj: o}
		}
	default:
		return class{kind: clShared}
	}
	for f := fr; f != nil; f = enclosingFrame(f) {
		if f.owns(obj) {
			if f == fr {
				return fr.valueClass(obj)
			}
			return class{kind: clCaptured, obj: obj}
		}
	}
	return class{kind: clShared}
}

func enclosingFrame(f *frame) *frame {
	if f.node.enclosing == nil {
		return nil
	}
	return f.node.enclosing.fr
}

func pkgLevelVar(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isParamIdent returns the parameter index if e is a bare reference to
// one of fr's parameters, else -1.
func (st *purityState) isParamIdent(fr *frame, e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	obj := fr.node.pkg.Info.Uses[id]
	if obj == nil {
		return -1
	}
	if k, ok := fr.params[obj]; ok {
		return k
	}
	return -1
}

func sliceBase(info *types.Info, ix *ast.IndexExpr) bool {
	tv, ok := info.Types[ix.X]
	if !ok {
		return false
	}
	switch t := tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, isArr := t.Elem().Underlying().(*types.Array)
		return isArr
	}
	return false
}

// classifyCall resolves the class of a call's result.
func (st *purityState) classifyCall(fr *frame, call *ast.CallExpr) class {
	info := fr.node.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return st.classify(fr, call.Args[0]) // conversion preserves aliasing
		}
		return class{kind: clShared}
	}
	fun := ast.Unparen(call.Fun)
	if id, ok := funIdent(fun); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "append":
				if len(call.Args) > 0 {
					return st.classify(fr, call.Args[0])
				}
			case "make", "new", "min", "max", "len", "cap":
				return class{kind: clFresh}
			}
			return class{kind: clFresh}
		}
	}
	if fn := st.staticCallee(info, call); fn != nil {
		if fn.Pkg() != nil && fn.Pkg().Path() == "dtm/internal/depgraph" && fn.Name() == "GetScratch" {
			return class{kind: clFresh} // one arena, acquired by this frame
		}
		if n, ok := st.funcs[origin(fn)]; ok && n.retFresh {
			return class{kind: clFresh}
		}
	}
	return class{kind: clShared}
}

func funIdent(fun ast.Expr) (*ast.Ident, bool) {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	return id, ok
}

// staticCallee resolves the *types.Func a call statically dispatches to,
// if any (declared functions and methods; nil for builtins, conversions,
// and dynamic calls through function values).
func (st *purityState) staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	for {
		switch f := fun.(type) {
		case *ast.IndexExpr:
			fun = ast.Unparen(f.X)
			continue
		case *ast.IndexListExpr:
			fun = ast.Unparen(f.X)
			continue
		case *ast.Ident:
			fn, _ := info.Uses[f].(*types.Func)
			return fn
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[f]; ok {
				if sel.Kind() == types.MethodVal {
					fn, _ := sel.Obj().(*types.Func)
					return fn
				}
				return nil // method expression / field func: dynamic
			}
			fn, _ := info.Uses[f.Sel].(*types.Func)
			return fn
		default:
			return nil
		}
	}
}

func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// recvExprOf returns the receiver expression of a method call, if the
// call is through a selector.
func recvExprOf(call *ast.CallExpr) ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return nil
}

// record files one direct effect against n, dropping writes into fresh
// memory and consuming //par:owned blessings.
func (st *purityState) record(n *funcNode, e effect, pos token.Pos, cands []string, what string) {
	if (e.kind == effWrite || e.kind == effSlot) && e.target.kind == clFresh {
		return
	}
	// Slot writes are sanctioned where they happen, so they never consume
	// a blessing — a //par:owned over one is stale. If a slot write
	// degrades into a real write through a call chain, the finding lands
	// at the call site, which can carry its own directive.
	if e.kind != effSlot && st.bless(pos, cands) {
		return
	}
	e.wit = witness{pos: pos, what: what}
	n.atoms = append(n.atoms, e)
}

// collectAtoms walks n's body (literals excluded: they are their own
// nodes) recording direct effects and resolved call sites.
func (st *purityState) collectAtoms(n *funcNode) {
	ast.Inspect(n.body, func(node ast.Node) bool {
		switch s := node.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				st.recordWrite(n, lhs, s.TokPos)
			}
		case *ast.IncDecStmt:
			st.recordWrite(n, s.X, s.TokPos)
		case *ast.SendStmt:
			st.record(n, effect{kind: effChan}, s.Arrow, exprCandidates(s.Chan), types.ExprString(s.Chan))
		case *ast.RangeStmt:
			if s.Tok == token.ASSIGN {
				if s.Key != nil {
					st.recordWrite(n, s.Key, s.For)
				}
				if s.Value != nil {
					st.recordWrite(n, s.Value, s.For)
				}
			}
		case *ast.CallExpr:
			st.recordCall(n, s)
		}
		return true
	})
}

// recordWrite files the effect of assigning through lvalue lhs.
func (st *purityState) recordWrite(n *funcNode, lhs ast.Expr, pos token.Pos) {
	fr := n.fr
	info := n.pkg.Info
	lhs = ast.Unparen(lhs)
	if pos == token.NoPos {
		pos = lhs.Pos()
	}
	what := types.ExprString(lhs)
	cands := exprCandidates(lhs)
	switch x := lhs.(type) {
	case *ast.Ident:
		if x.Name == "_" {
			return
		}
		obj := info.Defs[x]
		if obj != nil {
			return // a definition creates a frame-local variable
		}
		obj = info.Uses[x]
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && pkgLevelVar(v) {
			st.record(n, effect{kind: effWrite, target: class{kind: clGlobal, obj: v}}, x.Pos(), cands, what)
			return
		}
		if fr.owns(obj) {
			return // rebinding a local/parameter: frame-private
		}
		for f := enclosingFrame(fr); f != nil; f = enclosingFrame(f) {
			if f.owns(obj) {
				st.record(n, effect{kind: effVar, target: class{kind: clCaptured, obj: obj}}, x.Pos(), cands, what)
				return
			}
		}
		st.record(n, effect{kind: effWrite, target: class{kind: clShared}}, x.Pos(), cands, what)
	case *ast.SelectorExpr:
		if obj := info.Uses[x.Sel]; obj != nil {
			if v, ok := obj.(*types.Var); ok && pkgLevelVar(v) {
				st.record(n, effect{kind: effWrite, target: class{kind: clGlobal, obj: v}}, x.Pos(), cands, what)
				return
			}
		}
		st.record(n, effect{kind: effWrite, target: st.classify(fr, x.X)}, x.Pos(), cands, what)
	case *ast.IndexExpr:
		base := st.classify(fr, x.X)
		if k := st.isParamIdent(fr, x.Index); k >= 0 && sliceBase(info, x) {
			st.record(n, effect{kind: effSlot, target: base, slotParam: k}, x.Pos(), cands, what)
			return
		}
		st.record(n, effect{kind: effWrite, target: base}, x.Pos(), cands, what)
	case *ast.StarExpr:
		st.record(n, effect{kind: effWrite, target: st.classify(fr, x.X)}, x.Pos(), cands, what)
	}
}

// recordCall files the effects of one call: a resolved intramodule call
// becomes a callAtom whose summary is translated later; everything else
// goes through the external-API policy.
func (st *purityState) recordCall(n *funcNode, call *ast.CallExpr) {
	fr := n.fr
	info := n.pkg.Info
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	fun := ast.Unparen(call.Fun)
	what := types.ExprString(call.Fun)
	cands := exprCandidates(call.Fun)

	if id, ok := funIdent(fun); ok {
		if b, isB := info.Uses[id].(*types.Builtin); isB {
			switch b.Name() {
			case "delete", "clear":
				if len(call.Args) > 0 {
					st.record(n, effect{kind: effWrite, target: st.classify(fr, call.Args[0])},
						call.Pos(), append(exprCandidates(call.Args[0]), cands...), types.ExprString(call.Args[0]))
				}
			case "copy":
				if len(call.Args) > 0 {
					st.record(n, effect{kind: effWrite, target: st.classify(fr, call.Args[0])},
						call.Pos(), append(exprCandidates(call.Args[0]), cands...), types.ExprString(call.Args[0]))
				}
			case "close":
				if len(call.Args) > 0 {
					st.record(n, effect{kind: effChan}, call.Pos(), append(exprCandidates(call.Args[0]), cands...), types.ExprString(call.Args[0]))
				}
			}
			return
		}
		// A call through a local function-literal binding.
		if v, isVar := info.Uses[id].(*types.Var); isVar {
			for f := fr; f != nil; f = enclosingFrame(f) {
				if ln, ok := f.lits[v]; ok {
					st.addCallAtom(n, call, ln, class{}, what, cands)
					return
				}
			}
			st.dynamicCall(n, call, nil, what, cands)
			return
		}
	}

	fn := st.staticCallee(info, call)
	if fn == nil {
		// Dynamic dispatch through a function value or method expression.
		if lit, ok := fun.(*ast.FuncLit); ok {
			if ln := st.byLit[lit]; ln != nil {
				st.addCallAtom(n, call, ln, class{}, what, cands)
				return
			}
		}
		st.dynamicCall(n, call, recvExprOf(call), what, cands)
		return
	}
	// Calls into the obs layer are metric emission by policy, even though
	// obs is a module package: the effect of interest is "a counter
	// changed", not the atomic store implementing it.
	if fn.Pkg() != nil && fn.Pkg().Path() == "dtm/internal/obs" {
		st.record(n, effect{kind: effMetric}, call.Pos(), callSiteCands(call, cands), what)
		return
	}
	if node, ok := st.funcs[origin(fn)]; ok {
		recvCls := class{}
		if re := recvExprOf(call); re != nil && fn.Type().(*types.Signature).Recv() != nil {
			recvCls = st.classify(fr, re)
		}
		st.addCallAtom(n, call, node, recvCls, what, cands)
		return
	}
	st.externalCall(n, call, fn, what, cands)
}

func (st *purityState) addCallAtom(n *funcNode, call *ast.CallExpr, callee *funcNode, recvCls class, what string, cands []string) {
	fr := n.fr
	ca := callAtom{callee: callee, recv: recvCls, pos: call.Pos(), what: what, cands: cands}
	for _, arg := range call.Args {
		ca.args = append(ca.args, st.classify(fr, arg))
		ca.argPar = append(ca.argPar, st.isParamIdent(fr, arg))
	}
	n.calls = append(n.calls, ca)
	// Function-literal arguments may be invoked by the callee; account for
	// their effects at this call site too.
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			if ln := st.byLit[lit]; ln != nil {
				n.calls = append(n.calls, callAtom{callee: ln, pos: call.Pos(), what: what, cands: cands})
			}
		}
	}
}

// dynamicCall is the policy for calls we cannot resolve: assume the
// callee writes through its receiver and every pointer-like argument.
// (A dynamic call through a plain function value could also capture
// state; that soundness hole is documented in DESIGN §15.)
func (st *purityState) dynamicCall(n *funcNode, call *ast.CallExpr, recvExpr ast.Expr, what string, cands []string) {
	fr := n.fr
	info := n.pkg.Info
	if id, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && recvExpr != nil {
		// pkg.FuncVar(...): the selector base is a package name, not state.
		if base, isID := ast.Unparen(id.X).(*ast.Ident); isID {
			if _, isPkg := info.Uses[base].(*types.PkgName); isPkg {
				recvExpr = nil
			}
		}
	}
	if recvExpr != nil {
		if tv, ok := info.Types[recvExpr]; !ok || pointerLike(tv.Type) {
			st.record(n, effect{kind: effWrite, target: st.classify(fr, recvExpr)},
				call.Pos(), append(exprCandidates(recvExpr), cands...), types.ExprString(recvExpr))
		}
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			if ln := st.byLit[lit]; ln != nil {
				n.calls = append(n.calls, callAtom{callee: ln, pos: call.Pos(), what: what, cands: cands})
			}
			continue
		}
		tv, ok := info.Types[arg]
		if ok && !pointerLike(tv.Type) {
			continue
		}
		st.record(n, effect{kind: effWrite, target: st.classify(fr, arg)},
			call.Pos(), append(exprCandidates(arg), cands...), types.ExprString(arg))
	}
}

// allowedRandConstructors are the seeded math/rand entry points detclock
// also permits: constructing a source is deterministic, drawing from the
// global one is not.
var allowedRandConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true, "NewPCG": true, "NewChaCha8": true,
}

// purePkgs are stdlib packages whose plain functions neither retain nor
// mutate their arguments.
var purePkgs = map[string]bool{
	"strings": true, "strconv": true, "math": true, "math/bits": true,
	"unicode": true, "unicode/utf8": true, "errors": true, "cmp": true,
}

// externalCall applies per-API policy to calls that leave the module.
func (st *purityState) externalCall(n *funcNode, call *ast.CallExpr, fn *types.Func, what string, cands []string) {
	fr := n.fr
	sig, _ := fn.Type().(*types.Signature)
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	hasRecv := sig != nil && sig.Recv() != nil
	// For a plain package-qualified call the selector base is the package
	// ident, not a receiver.
	var recvExpr ast.Expr
	if hasRecv {
		recvExpr = recvExprOf(call)
	}

	switch {
	case path == "math/rand" || path == "math/rand/v2":
		if !hasRecv && allowedRandConstructors[fn.Name()] {
			return
		}
		// Methods on an explicitly seeded *rand.Rand mutate its private
		// state deterministically — but inside a parallel compute phase the
		// draw order is scheduling-dependent, so every draw is an effect.
		st.record(n, effect{kind: effRand}, call.Pos(), callSiteCands(call, cands), what)
		return
	case path == "sync":
		st.syncCall(n, call, fn, what, cands)
		return
	case path == "sync/atomic":
		name := fn.Name()
		if strings.HasPrefix(name, "Load") {
			return
		}
		target := recvExpr
		if target == nil && len(call.Args) > 0 {
			target = call.Args[0]
		}
		if target != nil {
			st.record(n, effect{kind: effWrite, target: st.classify(fr, target)},
				call.Pos(), append(exprCandidates(target), cands...), types.ExprString(target))
		}
		return
	case path == "time":
		return // detclock's jurisdiction
	case path == "fmt":
		name := fn.Name()
		if strings.HasPrefix(name, "Sprint") || name == "Errorf" || name == "Sprintf" {
			return
		}
		if strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
			st.record(n, effect{kind: effWrite, target: st.classify(fr, call.Args[0])},
				call.Pos(), append(exprCandidates(call.Args[0]), cands...), types.ExprString(call.Args[0]))
			return
		}
		if strings.HasPrefix(name, "Print") {
			st.record(n, effect{kind: effWrite, target: class{kind: clShared}}, call.Pos(), cands, what)
			return
		}
		return
	case purePkgs[path] && !hasRecv:
		return
	}
	// Unknown API: assume it writes through its receiver and every
	// pointer-like argument.
	st.dynamicCall(n, call, recvExpr, what, cands)
}

func callSiteCands(call *ast.CallExpr, cands []string) []string {
	out := cands
	if re := recvExprOf(call); re != nil {
		out = append(exprCandidates(re), out...)
	}
	return out
}

// syncCall is the policy for the sync package: locking is not a write
// (flagging it would damn every guarded read; lock-ordering determinism
// is out of scope), pool traffic and sync.Map mutation are effects.
func (st *purityState) syncCall(n *funcNode, call *ast.CallExpr, fn *types.Func, what string, cands []string) {
	fr := n.fr
	recvExpr := recvExprOf(call)
	recvType := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, isP := t.(*types.Pointer); isP {
			t = p.Elem()
		}
		if named, isN := t.(*types.Named); isN {
			recvType = named.Obj().Name()
		}
	}
	switch recvType {
	case "Pool":
		st.record(n, effect{kind: effPool}, call.Pos(), callSiteCands(call, cands), what)
	case "Mutex", "RWMutex", "Locker", "WaitGroup", "Cond":
		return
	case "Once":
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				if ln := st.byLit[lit]; ln != nil {
					n.calls = append(n.calls, callAtom{callee: ln, pos: call.Pos(), what: what, cands: cands})
				}
			}
		}
	case "Map":
		switch fn.Name() {
		case "Load", "Range":
		default:
			if recvExpr != nil {
				st.record(n, effect{kind: effWrite, target: st.classify(fr, recvExpr)},
					call.Pos(), callSiteCands(call, cands), types.ExprString(recvExpr))
			}
		}
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				if ln := st.byLit[lit]; ln != nil {
					n.calls = append(n.calls, callAtom{callee: ln, pos: call.Pos(), what: what, cands: cands})
				}
			}
		}
	default:
		st.dynamicCall(n, call, recvExpr, what, cands)
	}
}

// propagate translates one callee-summary effect through a call site into
// the caller's frame. The second result is false when the effect is
// contained (it lands in memory the caller owns).
func (st *purityState) propagate(e effect, ca *callAtom, caller *funcNode) (effect, bool) {
	mapc := func(c class) class {
		switch c.kind {
		case clFresh:
			return class{kind: clFresh}
		case clRecv:
			return ca.recv
		case clParam:
			if c.param < len(ca.args) {
				return ca.args[c.param]
			}
			return class{kind: clShared}
		case clCaptured:
			if caller.fr != nil && caller.fr.owns(c.obj) {
				return caller.fr.valueClass(c.obj)
			}
			return c
		}
		return c
	}
	out := e
	switch e.kind {
	case effMetric, effRand, effPool, effChan:
		return out, true
	case effVar:
		if caller.fr != nil && caller.fr.owns(e.target.obj) {
			return out, false // assignment to the caller's own variable
		}
		return out, true
	case effSlot:
		base := mapc(e.target)
		if e.slotParam < len(ca.argPar) && ca.argPar[e.slotParam] >= 0 {
			out.target = base
			out.slotParam = ca.argPar[e.slotParam]
			if base.kind == clFresh {
				return out, false
			}
			return out, true
		}
		// The slot index is no longer a caller parameter: degrade to a
		// plain write into the base.
		out = effect{kind: effWrite, target: base, wit: e.wit}
		if out.target.kind == clFresh {
			return out, false
		}
		return out, true
	default: // effWrite
		out.target = mapc(e.target)
		if out.target.kind == clFresh {
			return out, false
		}
		return out, true
	}
}

// computeSummaries folds atoms and callee summaries into per-function
// effect sets, iterating each strongly connected component of the call
// graph to a fixpoint (Tarjan emits components callees-first, so each
// component sees final summaries for everything below it).
func (st *purityState) computeSummaries() {
	for _, scc := range st.sccOrder() {
		for {
			changed := false
			for _, n := range scc {
				sum := st.foldSummary(n)
				if len(sum) != len(n.sum) {
					n.sum = sum
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
}

func (st *purityState) foldSummary(n *funcNode) []effect {
	seen := make(map[string]bool)
	var out []effect
	add := func(e effect) {
		k := effKeyOf(e)
		if !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	for _, a := range n.atoms {
		add(a)
	}
	for i := range n.calls {
		ca := &n.calls[i]
		if ca.callee == nil {
			continue
		}
		for _, e := range ca.callee.sum {
			if pe, keep := st.propagate(e, ca, n); keep {
				add(pe)
			}
		}
	}
	return out
}

// sccOrder returns the call graph's strongly connected components in
// reverse topological order (callees before callers).
func (st *purityState) sccOrder() [][]*funcNode {
	idx := 0
	indexOf := make(map[*funcNode]int, len(st.nodes))
	low := make(map[*funcNode]int, len(st.nodes))
	on := make(map[*funcNode]bool)
	var stack []*funcNode
	var sccs [][]*funcNode
	var strong func(n *funcNode)
	strong = func(n *funcNode) {
		indexOf[n] = idx
		low[n] = idx
		idx++
		stack = append(stack, n)
		on[n] = true
		for i := range n.calls {
			m := n.calls[i].callee
			if m == nil {
				continue
			}
			if _, seen := indexOf[m]; !seen {
				strong(m)
				if low[m] < low[n] {
					low[n] = low[m]
				}
			} else if on[m] && indexOf[m] < low[n] {
				low[n] = indexOf[m]
			}
		}
		if low[n] == indexOf[n] {
			var scc []*funcNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				on[m] = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range st.nodes {
		if _, seen := indexOf[n]; !seen {
			strong(n)
		}
	}
	return sccs
}
