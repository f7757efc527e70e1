package lowerbound

import (
	"slices"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// Tracker maintains Estimate's value over a live set that changes by
// single transactions, as a driver's ratio snapshots see it: transactions
// join when they arrive and leave once they have executed. It computes the
// traversal bound only (the assembly bound never decides, see the package
// doc) and keeps, per object, what a snapshot would otherwise rebuild:
//
//   - the distinct live requester nodes, with how many live transactions
//     sit at each;
//   - their MST, as a rooted tree, and its weight;
//   - the last availability node asked about, and the MST weight with it.
//
// Everything rests on one primitive: insert a point p into an MST T of a
// point set S. Some MST of S ∪ {p} uses only edges of T ∪ star(p), so the
// primitive walks T children first and, at each tree edge, drops the
// heaviest edge of the one cycle that edge closes through p (the linear
// vertex insertion of Chin and Houck). Dropping the heaviest edge of a
// cycle never changes an MST's weight, whichever of tied edges goes, so
// the result is exact. A new requester node is inserted and the new tree
// kept; a departed node drops the tree, which is rebuilt by re-inserting
// the nodes on the next Estimate. The availability node is inserted
// without keeping the tree (a node already in the set adds nothing), and
// the answer is kept until the node or the requester set changes.
//
// Distances are the graph's shortest paths, so the graph must be
// connected, as every simulated instance's is. A Tracker is not safe for
// concurrent use.
type Tracker struct {
	g      *graph.Graph
	objs   []objTree    // indexed by ObjID, grown on demand
	active []core.ObjID // objects with at least one live requester
	// Scratch for insert: the best edge from each point's side towards
	// the inserted point, the new tree's edges, and their adjacency.
	cand []treeEdge
	kept []treeEdge
	head []int32
	next []int32
}

// objTree is one object's share of the live set.
type objTree struct {
	nodes []graph.NodeID // distinct live requester nodes
	count []int32        // live requesters at nodes[i]
	slot  int32          // index into Tracker.active, -1 when inactive
	// The MST over nodes[:built], of total weight weight, rooted: up[u]
	// is point u's parent (-1 at the root), upW[u] the weight of the edge
	// to it, and order lists the points children first, root last. A
	// departed node resets built to 0.
	built  int
	up     []int32
	upW    []graph.Weight
	order  []int32
	weight graph.Weight
	// with is the MST weight over nodes plus availNode, valid while
	// withOK.
	availNode graph.NodeID
	with      graph.Weight
	withOK    bool
}

// treeEdge is a metric-closure edge between points a and b of one
// object's tree, named by their indices into objTree.nodes (the inserted
// point is index built).
type treeEdge struct {
	w    graph.Weight
	a, b int32
}

// NewTracker returns an empty tracker over g.
func NewTracker(g *graph.Graph) *Tracker {
	return &Tracker{g: g}
}

// Add puts tx in the live set.
func (t *Tracker) Add(tx *core.Transaction) {
	for _, o := range tx.Objects {
		for int(o) >= len(t.objs) {
			t.objs = append(t.objs, objTree{slot: -1})
		}
		ot := &t.objs[o]
		if i := slices.Index(ot.nodes, tx.Node); i >= 0 {
			ot.count[i]++
			continue
		}
		ot.nodes = append(ot.nodes, tx.Node)
		ot.count = append(ot.count, 1)
		ot.withOK = false
		if ot.slot < 0 {
			ot.slot = int32(len(t.active))
			t.active = append(t.active, o)
		}
	}
}

// Remove takes tx, which must be in the live set, out of it.
func (t *Tracker) Remove(tx *core.Transaction) {
	for _, o := range tx.Objects {
		ot := &t.objs[o]
		i := slices.Index(ot.nodes, tx.Node)
		if ot.count[i]--; ot.count[i] > 0 {
			continue
		}
		last := len(ot.nodes) - 1
		ot.nodes[i], ot.count[i] = ot.nodes[last], ot.count[last]
		ot.nodes, ot.count = ot.nodes[:last], ot.count[:last]
		ot.built, ot.withOK = 0, false
		if last == 0 {
			moved := t.active[len(t.active)-1]
			t.objs[moved].slot = ot.slot
			t.active[ot.slot] = moved
			t.active = t.active[:len(t.active)-1]
			ot.slot = -1
		}
	}
}

// Estimate returns Estimate(Input{G, now, live set, avail}) for the
// tracked live set, where avail gives each requested object's
// availability at now.
func (t *Tracker) Estimate(now core.Time, avail func(core.ObjID) Avail) core.Time {
	best := core.Time(1)
	for _, o := range t.active {
		ot := &t.objs[o]
		a := avail(o)
		if ot.built == 0 { // one point: no edges
			ot.built, ot.weight = 1, 0
			ot.up, ot.upW, ot.order = append(ot.up[:0], -1), append(ot.upW[:0], 0), append(ot.order[:0], 0)
		}
		for ot.built < len(ot.nodes) {
			ot.weight = t.insert(ot, ot.nodes[ot.built], true)
			ot.built++
		}
		if !ot.withOK || ot.availNode != a.Node {
			ot.availNode, ot.with, ot.withOK = a.Node, t.insert(ot, a.Node, false), true
		}
		lb := core.Time(ot.with)
		if a.Free > now {
			lb += a.Free - now
		}
		if lb > best {
			best = lb
		}
	}
	return best
}

// insert returns the MST weight over ot's tree plus point p. Children
// first, each point u closes one cycle through p: its tree edge to its
// parent, the heaviest edge cand[u] on u's current path to p, and
// cand[parent] on the parent's. The lighter of the first two stays; the
// heaviest of the three goes, and what remains is the parent's new
// cand. With keep, p is nodes[built] and the new tree replaces ot's.
func (t *Tracker) insert(ot *objTree, p graph.NodeID, keep bool) graph.Weight {
	k := ot.built
	t.cand = t.cand[:0]
	for i, v := range ot.nodes[:k] {
		if v == p {
			return ot.weight
		}
		t.cand = append(t.cand, treeEdge{w: t.g.Dist(p, v), a: int32(i), b: int32(k)})
	}
	t.kept = t.kept[:0]
	var total graph.Weight
	for _, u := range ot.order[:k-1] {
		par := ot.up[u]
		lo, hi := treeEdge{w: ot.upW[u], a: u, b: par}, t.cand[u]
		if hi.w < lo.w {
			lo, hi = hi, lo
		}
		total += lo.w
		t.kept = append(t.kept, lo)
		if hi.w < t.cand[par].w {
			t.cand[par] = hi
		}
	}
	root := t.cand[ot.order[k-1]]
	total += root.w
	if keep {
		t.kept = append(t.kept, root)
		t.root(ot, k+1)
	}
	return total
}

// root replaces ot's tree with the n-point tree t.kept, rooted at point 0
// by a breadth-first walk whose reverse is the children-first order.
func (t *Tracker) root(ot *objTree, n int) {
	t.head = t.head[:0]
	for range n {
		t.head = append(t.head, -1)
	}
	t.next = t.next[:0]
	for j, e := range t.kept {
		t.next = append(t.next, t.head[e.a], t.head[e.b])
		t.head[e.a], t.head[e.b] = int32(2*j), int32(2*j+1)
	}
	ot.up, ot.upW = slices.Grow(ot.up[:0], n)[:n], slices.Grow(ot.upW[:0], n)[:n]
	ot.up[0], ot.upW[0] = -1, 0
	ot.order = append(ot.order[:0], 0)
	for i := 0; i < len(ot.order); i++ {
		u := ot.order[i]
		for h := t.head[u]; h >= 0; h = t.next[h] {
			e := t.kept[h/2]
			v := e.a
			if v == u {
				v = e.b
			}
			if v == ot.up[u] {
				continue
			}
			ot.up[v], ot.upW[v] = u, e.w
			ot.order = append(ot.order, v)
		}
	}
	slices.Reverse(ot.order)
}
