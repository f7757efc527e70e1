package batch

// Persistent per-session state for the native Tour and Coloring sessions.
//
// The guiding invariant: membership-dependent structure is cached across
// probes — conflict components (a rollbackable union-find keyed by shared
// objects) for Tour, the conflict adjacency (object posting lists) for
// Coloring. Both depend solely on which transactions are in the session
// and on the immutable graph, so they survive arbitrary changes to the
// live problem's Now and Avail between probes. Coloring recomputes its
// floors and colors per Cost/Assign into reusable scratch.
//
// Tour's dominant cost, the O(V²) Prim pass over the metric closure, is a
// pure function of the component's node set, which includes availability
// nodes. Each component therefore keeps its canonical MST, grown by vertex
// insertion as pushes merge components, until Problem.SetAvail overwrites
// an availability entry; the bucket engines do that only when an object's
// last user moves, so the trees outlive arrivals. Beside its tree each
// component keeps a summary of its schedule that does not depend on Now
// (compTour.start), so a probe walks only the component its push touched
// and reads every other one in O(1), whatever Now has become.
//
// The probe path is not allocation-free: a push that grows a component
// allocates the new state and its tree rows, and the component's first
// evaluation after it allocates the preorder's order and prefix, about
// four allocations per Push. Everything else reuses session scratch.

import (
	"fmt"
	"math"
	"slices"

	"dtm/internal/coloring"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

// tour is a component's canonical MST and, once computed, its preorder
// tour with the cumulative distances along it (see preorder). It is
// immutable once built, so states share it by value.
type tour struct {
	tree   graph.MST
	order  []graph.NodeID
	prefix []core.Time
}

// rollbackUF is a union-find with union by size, no path compression, and
// an undo trail, so the tentative unions of a probe Push can be retracted
// exactly by Pop.
type rollbackUF struct {
	parent []int32
	size   []int32
	trail  []int32 // attached roots, in union order
}

func (u *rollbackUF) add() {
	n := int32(len(u.parent))
	u.parent = append(u.parent, n)
	u.size = append(u.size, 1)
}

func (u *rollbackUF) find(x int32) int32 {
	for u.parent[x] != x {
		x = u.parent[x]
	}
	return x
}

func (u *rollbackUF) union(a, b int32) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if u.size[ra] < u.size[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	u.size[ra] += u.size[rb]
	u.trail = append(u.trail, rb)
}

// rollback undoes unions until the trail is mark entries long. Undo is
// LIFO-safe: once a root is attached it stops being a root, so later
// unions never relink or resize it — its recorded parent and subtree size
// are still current when unwound.
func (u *rollbackUF) rollback(mark int) {
	for len(u.trail) > mark {
		rb := u.trail[len(u.trail)-1]
		u.trail = u.trail[:len(u.trail)-1]
		u.size[u.parent[rb]] -= u.size[rb]
		u.parent[rb] = rb
	}
}

// drop removes the most recently added (and already rolled-back) element.
func (u *rollbackUF) drop() {
	n := len(u.parent) - 1
	u.parent = u.parent[:n]
	u.size = u.size[:n]
}

func (u *rollbackUF) reset() {
	u.parent = u.parent[:0]
	u.size = u.size[:0]
	u.trail = u.trail[:0]
}

// noFree is compTour.maxFree for a component whose transactions use no
// object.
const noFree = core.Time(math.MinInt64)

// compTour is the persistent tour state of one conflict component: the
// canonical MST over the metric closure of its node set, the preorder
// (attached lazily), and a summary of the component's schedule that does
// not depend on Now. The tree is immutable once built, so Pop can restore
// a previous state by pointer; the summary is rewritten only by a walk
// over the members the state was built for.
//
// The summary. scheduleComponent (tour.go) runs member tx at
// start + shift + pos(tx), where pos is tx's distance along the preorder
// (times the slow factor), L = pos of the tour's last node, start =
// max(Now, maxFree) + L, and shift lifts the latest floor onto its slot
// start + pos(tx). An object term of that floor, max(Free, Now) +
// d(a, tx)·slow, never exceeds max(Now, maxFree) + L ≤ the slot: the
// object's availability node a and tx's node both lie on the tour, so by
// the triangle inequality d(a, tx) is at most the tour's length between
// them. Only a late arrival can shift the component, so
//
//	start + shift = max(Now + L, base),
//	base = max(maxFree + L, max over members of Arrival − pos(tx)),
//
// and the component's makespan ends at that plus maxPos, the largest
// member position. base and maxPos depend on membership and on the
// availability entries alone, so they stay exact while the state's
// generation matches, at any Now.
//
// Three summary words keep a state at 112 bytes, inside its allocation
// size class; a fourth moves it to 128 bytes, and every push pays for it.
type compTour struct {
	gen int64 // the problem's availability generation this state was built in
	tour

	maxFree core.Time // the latest Free of the component's objects, or noFree
	base    core.Time
	maxPos  core.Time // -1 until a walk over the members sets the summary
}

// tourLen returns L, the tour's length at the object speed.
func (st *compTour) tourLen(slow core.Time) core.Time {
	return st.prefix[len(st.prefix)-1] * slow
}

// start returns start + shift of the component's schedule at now: every
// member runs at start(now) + pos(tx).
func (st *compTour) start(now, slow core.Time) core.Time {
	return max(now+st.tourLen(slow), st.base)
}

// stateRestore undoes one Push's write to tourSession.states.
type stateRestore struct {
	root int32
	prev *compTour
}

// NewSession implements SessionScheduler: conflict components are
// maintained incrementally by the union-find under Push/Pop (replacing
// the per-probe components() rebuild), and each component's canonical MST
// is maintained incrementally across pushes — a push copies the largest
// constituent component's tree and inserts the few nodes new to it
// instead of re-running Prim over the whole component. A component with
// no current state (its first evaluation, or the first after an entry is
// overwritten) builds its tree afresh. Object IDs index a dense
// table, so they must be non-negative, as core.Instance.Validate ensures.
func (t Tour) NewSession(p *Problem, m *obs.Metrics) Session {
	met := newSessionMetrics(m)
	met.sessions.Inc()
	return &tourSession{
		p:        p,
		graphErr: p.checkGraph(),
		met:      met,
		mst:      graph.NewMSTBuilder(p.G),
	}
}

type tourSession struct {
	p        *Problem
	graphErr error // Problem.Validate's graph check, made once
	met      sessionMetrics

	// Membership state, patched by Push/Pop.
	txns      []*core.Transaction
	uf        rollbackUF
	firstUser []int32 // by ObjID: the first pushed user's index, -1 for none
	marks     []int32 // uf trail length before each push
	validated int     // txns[:validated] had every availability entry at the last check
	validGen  int64   // the problem's availability generation at that check

	// Incremental tour state: the state of each union-find root's
	// component, indexed by element and valid while its generation matches
	// the problem's (moved by Problem.SetAvail — availability nodes and
	// free times are part of the state, so it cannot outlive the entries
	// it was derived from). Slots of non-roots hold the state a Pop
	// revives, and slots at or past len(txns) are nil. restore holds one
	// entry per push: the previous states value under the merged root.
	states  []*compTour
	restore []stateRestore

	// Push/merge scratch.
	peers []int32
	fresh []graph.NodeID
	mst   *graph.MSTBuilder

	// Per-evaluation scratch, reused across Cost/Assign calls.
	rootOf   []int32
	roots    []int32
	rootSeen []int64
	rootGen  int64
	comp     []*core.Transaction
	nodes    []graph.NodeID
	nodeGen  []int64
	nodePos  []core.Time
	gen      int64
	psc      preorderScratch
}

func (s *tourSession) Push(tx *core.Transaction) {
	s.met.pushes.Inc()
	i := int32(len(s.txns))
	s.txns = append(s.txns, tx)
	s.marks = append(s.marks, int32(len(s.uf.trail)))
	s.uf.add()
	s.states = append(s.states, nil)
	peers := s.peers[:0]
	for _, o := range tx.Objects {
		for int(o) >= len(s.firstUser) {
			s.firstUser = append(s.firstUser, -1)
		}
		if j := s.firstUser[o]; j >= 0 {
			r := s.uf.find(j)
			if !slices.Contains(peers, r) {
				peers = append(peers, r)
			}
			s.uf.union(i, j)
		} else {
			s.firstUser[o] = i
		}
	}
	s.peers = peers
	// Maintain the merged component's tour state. Exactly one states entry
	// is (over)written per push — the new root's — and logged for Pop;
	// entries left under the old roots are dead while merged but become
	// current again when a Pop rolls the union-find back.
	newRoot := s.uf.find(i)
	s.restore = append(s.restore, stateRestore{root: newRoot, prev: s.states[newRoot]})
	s.states[newRoot] = s.mergeStates(tx, peers)
}

// mergeStates builds the merged component's tour state from the states of
// the components tx bridges, or returns nil when it cannot (a constituent
// state is missing or stale, or an availability entry is absent at push
// time) — the next evaluation then builds the component's tree afresh
// and re-seeds the state. The merged state carries maxFree, so its first
// evaluation reads no availability entry.
//
// The merged tree is the largest constituent's tree, copied, with every
// node new to it inserted (graph.MSTBuilder.Insert). The canonical MST is
// unique, so the order of insertion does not matter, and the other
// constituents contribute only their node sets. A merge costs O(|N|·|U|)
// distance reads for the new nodes N of the union U, never more than a
// fresh Build's O(|U|²).
func (s *tourSession) mergeStates(tx *core.Transaction, peers []int32) *compTour {
	var big *compTour
	maxFree := noFree
	for _, r := range peers {
		st := s.states[r]
		if st == nil || st.gen != s.p.availGen {
			return nil
		}
		if big == nil || st.tree.Len() > big.tree.Len() {
			big = st
		}
		maxFree = max(maxFree, st.maxFree)
	}
	// The nodes new to big's tree, dedup via generation stamps.
	s.ensureNodeScratch()
	s.gen++
	gen := s.gen
	if big != nil {
		for i := range big.tree.Len() {
			s.nodeGen[big.tree.Node(i)] = gen
		}
	}
	fresh := s.fresh[:0]
	addNode := func(v graph.NodeID) {
		if s.nodeGen[v] != gen {
			s.nodeGen[v] = gen
			fresh = append(fresh, v)
		}
	}
	for _, r := range peers {
		if st := s.states[r]; st != big {
			for i := range st.tree.Len() {
				addNode(st.tree.Node(i))
			}
		}
	}
	addNode(tx.Node)
	for _, o := range tx.Objects {
		a, ok := s.p.Avail[o]
		if !ok {
			s.fresh = fresh
			return nil // node set unknowable; evaluation will report the error
		}
		addNode(a.Node)
		maxFree = max(maxFree, a.Free)
	}
	s.fresh = fresh
	st := &compTour{gen: s.p.availGen, maxFree: maxFree, maxPos: -1}
	if big != nil && len(fresh) == 0 {
		// No nodes beyond the largest constituent's (components may share
		// physical nodes): the canonical MST is unchanged, and aliasing
		// big's immutable tour is safe.
		st.tour = big.tour
	} else if big == nil {
		s.mst.Build(&st.tree, fresh) // a new component
	} else {
		st.tree = big.tree.Clone(len(fresh))
		for _, v := range fresh {
			s.mst.Insert(&st.tree, v)
		}
	}
	return st
}

// ensureNodeScratch sizes the per-NodeID stamp arrays to the graph.
func (s *tourSession) ensureNodeScratch() {
	if need := s.p.G.N(); len(s.nodeGen) < need {
		s.nodeGen = make([]int64, need)
		s.nodePos = make([]core.Time, need)
	}
}

func (s *tourSession) Pop() {
	n := len(s.txns)
	if n == 0 {
		return
	}
	last := int32(n - 1)
	tx := s.txns[last]
	for _, o := range tx.Objects {
		// The entry points at last exactly when this push created it.
		if s.firstUser[o] == last {
			s.firstUser[o] = -1
		}
	}
	s.uf.rollback(int(s.marks[last]))
	s.uf.drop()
	s.marks = s.marks[:last]
	s.validated = min(s.validated, int(last))
	// Restore the states entry the push overwrote. An evaluation between
	// the push and this pop may have re-seeded other roots' states — those
	// components' membership is untouched by this pop, so they stay valid.
	// The popped element's own slot is nil again: it was nil before the
	// push, and only a root's slot is ever written.
	r := s.restore[last]
	s.restore[last] = stateRestore{}
	s.restore = s.restore[:last]
	s.states[r.root] = r.prev
	s.states = s.states[:last]
	s.txns[last] = nil
	s.txns = s.txns[:last]
}

func (s *tourSession) Len() int { return len(s.txns) }

func (s *tourSession) Cost() (core.Time, error) { return s.schedule(nil) }

func (s *tourSession) Assign() (Assignment, error) {
	out := make(Assignment, len(s.txns))
	if _, err := s.schedule(out); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *tourSession) Reset() {
	for i, tx := range s.txns {
		for _, o := range tx.Objects {
			s.firstUser[o] = -1
		}
		s.txns[i] = nil
	}
	s.txns = s.txns[:0]
	s.marks = s.marks[:0]
	s.validated = 0
	s.uf.reset()
	clear(s.states)
	s.states = s.states[:0]
	clear(s.restore)
	s.restore = s.restore[:0]
	clear(s.comp)
	s.comp = s.comp[:0]
}

// schedule evaluates the current set against the live problem: group the
// transactions by union-find root, schedule each component, and return the
// makespan relative to p.Now (writing execution times into out when
// non-nil). The result is byte-identical to Tour.Schedule on the same set:
// the assignment depends only on the component partition and each
// component's node set, not on enumeration order.
func (s *tourSession) schedule(out Assignment) (core.Time, error) {
	s.met.costs.Inc()
	if s.graphErr != nil {
		return 0, s.graphErr
	}
	// Validate availability in push order, mirroring Problem.Validate so a
	// malformed probe reports the same first offender as the one-shot path
	// would (components are visited in root order, not push order). Only
	// the transactions pushed since the last successful check need it,
	// and the check restarts when the availability generation moves.
	if s.validGen != s.p.availGen {
		s.validGen, s.validated = s.p.availGen, 0
	}
	for ; s.validated < len(s.txns); s.validated++ {
		tx := s.txns[s.validated]
		for _, o := range tx.Objects {
			if _, ok := s.p.Avail[o]; !ok {
				return 0, fmt.Errorf("batch: no availability for object %d (transaction %d)", o, tx.ID)
			}
		}
	}
	n := len(s.txns)
	rootOf := s.rootOf
	if cap(rootOf) < n {
		rootOf = make([]int32, n)
		s.rootSeen = make([]int64, cap(rootOf))
	}
	rootOf = rootOf[:n]
	rootSeen := s.rootSeen[:cap(rootOf)]
	s.rootGen++
	rg := s.rootGen
	roots := s.roots[:0]
	for i := 0; i < n; i++ {
		r := s.uf.find(int32(i))
		rootOf[i] = r
		if rootSeen[r] != rg {
			rootSeen[r] = rg
			roots = append(roots, r)
		}
	}
	s.rootOf, s.roots = rootOf, roots
	now, slow := s.p.Now, core.Time(s.p.slow())
	var max core.Time
	for _, r := range roots {
		// A component whose state carries a current summary costs O(1) at
		// any Now. Assign still needs the per-transaction times and walks
		// every component.
		st := s.states[r]
		if out != nil || st == nil || st.gen != s.p.availGen || st.maxPos < 0 {
			comp := s.comp[:0]
			for i := 0; i < n; i++ {
				if rootOf[i] == r {
					comp = append(comp, s.txns[i])
				}
			}
			s.comp = comp
			st = s.component(r, comp, out)
		}
		if d := st.start(now, slow) + st.maxPos - now; d > max {
			max = d
		}
	}
	return max, nil
}

// component brings root r's state up to date for its members comp. The
// tree is the state's own when current — the incrementally grown
// canonical MST — and built afresh otherwise, re-seeding the state. Then
// one walk over the members along the tree's preorder sets the summary
// (see compTour), and writes each member's execution time into out when
// it is non-nil.
func (s *tourSession) component(r int32, comp []*core.Transaction, out Assignment) *compTour {
	p := s.p
	s.ensureNodeScratch()
	st := s.states[r]
	if st == nil || st.gen != s.p.availGen {
		nodes := s.nodes[:0]
		maxFree := noFree
		for _, tx := range comp {
			nodes = append(nodes, tx.Node)
			for _, o := range tx.Objects {
				a := p.Avail[o] // present: schedule validated the set upfront
				nodes = append(nodes, a.Node)
				maxFree = max(maxFree, a.Free)
			}
		}
		s.nodes = nodes
		st = &compTour{gen: s.p.availGen, maxFree: maxFree}
		s.mst.Build(&st.tree, nodes)
		s.states[r] = st
	}
	if st.order == nil {
		st.order, st.prefix = s.psc.preorder(p.G, &st.tree)
	}
	slow := core.Time(p.slow())
	// Every node of the component appears in order, so each relevant
	// nodePos slot is freshly overwritten — no staleness possible.
	for i, v := range st.order {
		s.nodePos[v] = st.prefix[i] * slow
	}
	base := st.maxFree
	if base != noFree {
		base += st.tourLen(slow)
	}
	var maxPos core.Time
	for _, tx := range comp {
		pos := s.nodePos[tx.Node]
		base = max(base, tx.Arrival-pos)
		maxPos = max(maxPos, pos)
	}
	st.base, st.maxPos = base, maxPos
	if out != nil {
		start := st.start(p.Now, slow)
		for _, tx := range comp {
			out[tx.ID] = start + s.nodePos[tx.Node]
		}
	}
	return st
}

// NewSession implements SessionScheduler: the conflict adjacency (object
// posting lists plus weighted edges) persists across probes; Pop truncates
// the trailing entries its Push appended. Colors are re-swept per
// evaluation with the shared coloring.Sweep search, over floors read from
// the live problem.
func (c Coloring) NewSession(p *Problem, m *obs.Metrics) Session {
	met := newSessionMetrics(m)
	met.sessions.Inc()
	return &coloringSession{p: p, graphErr: p.checkGraph(), met: met, objMembers: make(map[core.ObjID][]int32)}
}

type cEdge struct {
	to int32
	w  graph.Weight
}

type coloringSession struct {
	p        *Problem
	graphErr error // Problem.Validate's graph check, made once
	met      sessionMetrics

	// Membership state, patched by Push/Pop. Invariant: adj slots at
	// indices >= len(txns) are empty.
	txns       []*core.Transaction
	adj        [][]cEdge
	objMembers map[core.ObjID][]int32
	seen       []int64 // pair-dedup stamps, one per txn slot
	gen        int64

	// Per-evaluation scratch, reused across Cost/Assign calls.
	floors []core.Time
	order  []int32
	colors []coloring.Color
	forb   []coloring.Interval
	sweep  coloring.Sweep
}

func (s *coloringSession) Push(tx *core.Transaction) {
	s.met.pushes.Inc()
	i := int32(len(s.txns))
	s.txns = append(s.txns, tx)
	if int(i) == len(s.adj) {
		s.adj = append(s.adj, nil)
		s.seen = append(s.seen, 0)
	}
	s.gen++
	gen := s.gen
	s.seen[i] = gen
	slow := s.p.slow()
	for _, o := range tx.Objects {
		for _, j := range s.objMembers[o] {
			if s.seen[j] == gen {
				continue // pair already handled via an earlier shared object
			}
			s.seen[j] = gen
			// Weight-0 edges impose no constraint; dropped like AddEdge does.
			if w := s.p.G.Dist(tx.Node, s.txns[j].Node) * slow; w > 0 {
				s.adj[i] = append(s.adj[i], cEdge{to: j, w: w})
				s.adj[j] = append(s.adj[j], cEdge{to: i, w: w})
			}
		}
		s.objMembers[o] = append(s.objMembers[o], i)
	}
}

func (s *coloringSession) Pop() {
	n := len(s.txns)
	if n == 0 {
		return
	}
	last := int32(n - 1)
	tx := s.txns[last]
	for _, o := range tx.Objects {
		lst := s.objMembers[o]
		s.objMembers[o] = lst[:len(lst)-1]
	}
	// Nothing was pushed after last, so each peer list's tail entry is
	// exactly the edge this push appended.
	for _, e := range s.adj[last] {
		peer := s.adj[e.to]
		s.adj[e.to] = peer[:len(peer)-1]
	}
	s.adj[last] = s.adj[last][:0]
	s.txns[last] = nil
	s.txns = s.txns[:last]
}

func (s *coloringSession) Len() int { return len(s.txns) }

func (s *coloringSession) Cost() (core.Time, error) { return s.schedule(nil) }

func (s *coloringSession) Assign() (Assignment, error) {
	out := make(Assignment, len(s.txns))
	if _, err := s.schedule(out); err != nil {
		return nil, err
	}
	return out, nil
}

func (s *coloringSession) Reset() {
	for i := range s.txns {
		s.txns[i] = nil
	}
	s.txns = s.txns[:0]
	for i := range s.adj {
		s.adj[i] = s.adj[i][:0]
	}
	// Keep the posting lists' capacity; the same objects recur per level.
	for o, lst := range s.objMembers {
		s.objMembers[o] = lst[:0]
	}
}

// schedule re-runs the floor-ordered greedy sweep over the persistent
// adjacency. Byte-identical to Coloring.Schedule: the anchor vertex of
// transaction i contributes exactly the Forbid(0, floor-Now) interval, a
// conflict neighbor contributes iff it was colored earlier in the same
// (floor, ID) order, and the Sweep search is order-insensitive over the
// interval set.
func (s *coloringSession) schedule(out Assignment) (core.Time, error) {
	s.met.costs.Inc()
	if s.graphErr != nil {
		return 0, s.graphErr
	}
	p := s.p
	n := len(s.txns)
	floors := s.floors[:0]
	for _, tx := range s.txns {
		f, err := p.Floor(tx)
		if err != nil {
			return 0, err
		}
		floors = append(floors, f)
	}
	s.floors = floors
	order := s.order[:0]
	for i := 0; i < n; i++ {
		order = append(order, int32(i))
	}
	s.order = order
	slices.SortFunc(order, func(a, b int32) int {
		if floors[a] != floors[b] {
			if floors[a] < floors[b] {
				return -1
			}
			return 1
		}
		if s.txns[a].ID != s.txns[b].ID {
			if s.txns[a].ID < s.txns[b].ID {
				return -1
			}
			return 1
		}
		return 0
	})
	colors := s.colors[:0]
	for i := 0; i < n; i++ {
		colors = append(colors, coloring.Uncolored)
	}
	s.colors = colors
	var max core.Time
	for _, i := range order {
		forb := s.forb[:0]
		if f := floors[i] - p.Now; f > 0 {
			forb = append(forb, coloring.Forbid(0, graph.Weight(f)))
		}
		for _, e := range s.adj[i] {
			if cu := colors[e.to]; cu != coloring.Uncolored {
				forb = append(forb, coloring.Forbid(cu, e.w))
			}
		}
		s.forb = forb[:0] // keep the (possibly grown) buffer
		c := s.sweep.SmallestValid(forb)
		colors[i] = c
		t := p.Now + core.Time(c)
		if out != nil {
			out[s.txns[i].ID] = t
		}
		if d := t - p.Now; d > max {
			max = d
		}
	}
	return max, nil
}
