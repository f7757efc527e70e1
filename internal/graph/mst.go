package graph

import (
	"cmp"
	"slices"
	"sort"
)

// MST is a minimum spanning tree of the metric closure over a set of
// distinct nodes: the complete graph on the nodes, each pair weighted by
// its shortest-path distance. Every comparison of two edges uses the one
// strict total order of mstEdge.less, so the tree is unique: Build and
// any sequence of Inserts and Deletes that leaves the same nodes give the
// same edge set, and so the same rows.
//
// The tree is stored rooted, one 16-byte row per point: its node, its
// parent and the weight of the edge to it. Points are sorted by node, so
// point 0, the smallest node, is the root. An MST holds only these rows
// and its weight; the scratch that builds, grows and shrinks it, a
// children-first order included, belongs to an MSTBuilder, one per owner.
//
// Distances are the graph's shortest paths, so the nodes must be
// mutually reachable; MetricMST alone also answers the other case.
type MST struct {
	pts    []mstPoint
	weight Weight
}

// mstPoint is one point's row. Node IDs fit int32 because New refuses
// larger graphs.
type mstPoint struct {
	w    Weight // weight of the edge to up
	node int32
	up   int32 // parent point, -1 at the root
}

// Len returns the number of points.
func (t *MST) Len() int { return len(t.pts) }

// Node returns point i's node; points are sorted by node.
func (t *MST) Node(i int) NodeID { return NodeID(t.pts[i].node) }

// Parent returns point i's parent point, or -1 for the root, point 0.
func (t *MST) Parent(i int) int { return int(t.pts[i].up) }

// Weight returns the tree's weight, the sum of its edges.
func (t *MST) Weight() Weight { return t.weight }

// Clone returns a copy of t with room for extra more points, so that
// inserting them grows the copy in place and leaves t as it is.
func (t *MST) Clone(extra int) MST {
	n := len(t.pts)
	c := MST{pts: make([]mstPoint, n, n+extra), weight: t.weight}
	copy(c.pts, t.pts)
	return c
}

// mstEdge is a metric-closure edge between points a and b. It carries
// its endpoint nodes, lo < hi, so that less reads nothing else.
type mstEdge struct {
	w      Weight
	lo, hi NodeID
	a, b   int32
}

func newMSTEdge(w Weight, a, b int32, u, v NodeID) mstEdge {
	if u > v {
		u, v = v, u
	}
	return mstEdge{w: w, lo: u, hi: v, a: a, b: b}
}

// less is the strict total order of every MST comparison: weight, then
// the smaller endpoint node, then the larger. Distinct node pairs never
// tie, so the minimum spanning tree under it is unique.
func (x mstEdge) less(y mstEdge) bool {
	if x.w != y.w {
		return x.w < y.w
	}
	if x.lo != y.lo {
		return x.lo < y.lo
	}
	return x.hi < y.hi
}

// MSTBuilder builds, grows and shrinks MSTs over one graph's metric
// closure. It holds only scratch, reused across calls, so an owner keeps
// one builder for any number of trees. It is not safe for concurrent use.
type MSTBuilder struct {
	g *Graph
	// cand holds Prim's best edge into the tree per point (Build) or per
	// component (Delete), or the insertion walk's candidate edge per
	// point towards the new point.
	cand []mstEdge
	rest []int32   // Prim: the points or components not yet in the tree
	kept []mstEdge // Insert, Delete: the new tree's edges
	// part holds, one after another, Delete's component of each point,
	// the points grouped by component and where each group starts. One
	// field serves all three because every field grows every builder,
	// and the batch tour scheduler allocates one per call: with three,
	// dtmbench's quick T8 ran 18% slower on a 2-core x86 host.
	part  []int32
	head  []int32 // adjacency lists, for orders and re-rooting
	next  []int32
	order []int32 // breadth first from the root
}

// NewMSTBuilder returns a builder over g's metric closure.
func NewMSTBuilder(g *Graph) *MSTBuilder { return &MSTBuilder{g: g} }

// Build replaces t with the MST over nodes, reusing t's storage.
// Duplicates are ignored and input order does not matter. It runs Prim
// from the smallest node, reading every distance between two points.
func (b *MSTBuilder) Build(t *MST, nodes []NodeID) {
	pts := slices.Grow(t.pts[:0], len(nodes))
	for _, v := range nodes {
		pts = append(pts, mstPoint{node: int32(v), up: -1})
	}
	slices.SortFunc(pts, func(x, y mstPoint) int { return cmp.Compare(x.node, y.node) })
	pts = slices.CompactFunc(pts, func(x, y mstPoint) bool { return x.node == y.node })
	t.pts, t.weight = pts, 0
	n := len(pts)
	if n == 0 {
		return
	}
	b.cand = slices.Grow(b.cand[:0], n)[:n]
	rest := b.rest[:0]
	row := b.g.tree(NodeID(pts[0].node))
	for i := 1; i < n; i++ {
		b.cand[i] = t.edge(row, 0, int32(i))
		rest = append(rest, int32(i))
	}
	for len(rest) > 0 {
		s := 0
		for j := 1; j < len(rest); j++ {
			if b.cand[rest[j]].less(b.cand[rest[s]]) {
				s = j
			}
		}
		sel := rest[s]
		rest[s] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		e := b.cand[sel] // e.a is the tree side
		pts[sel].up, pts[sel].w = e.a, e.w
		t.weight += e.w
		row := b.g.tree(NodeID(pts[sel].node))
		for _, i := range rest {
			if c := t.edge(row, sel, i); c.less(b.cand[i]) {
				b.cand[i] = c
			}
		}
	}
	b.rest = rest
}

// edge returns the metric-closure edge between points a and b, with row
// the shortest-path tree of a's node.
func (t *MST) edge(row spTree, a, b int32) mstEdge {
	u, v := NodeID(t.pts[a].node), NodeID(t.pts[b].node)
	return newMSTEdge(row[v].dist, a, b, u, v)
}

// Insert adds node p to t, keeping t the MST over its points and p, with
// the rows Build would give. It does nothing when p is already a point of
// t. It reads the distance from p to each point once (see walk).
func (b *MSTBuilder) Insert(t *MST, p NodeID) {
	w, added := b.walk(t, p, true)
	if !added {
		return
	}
	// p takes its sorted place; the points from there on move up one.
	k := int32(len(t.pts))
	pos := int32(sort.Search(int(k), func(i int) bool { return NodeID(t.pts[i].node) > p }))
	t.pts = slices.Insert(t.pts, int(pos), mstPoint{node: int32(p)})
	shift := func(i int32) int32 {
		switch {
		case i == k:
			return pos
		case i >= pos:
			return i + 1
		}
		return i
	}
	for j := range b.kept {
		e := &b.kept[j]
		e.a, e.b = shift(e.a), shift(e.b)
	}
	b.root(t)
	t.weight = w
}

// Delete removes node p from t, keeping t the MST over its other points,
// with the rows Build would give. It does nothing when p is not a point
// of t. Every edge of t away from p stays: its fundamental cut in t, less
// p, still has it as the lightest crossing edge under the strict order.
// So Delete keeps those edges and joins the components of t without p by
// Prim over whole components, reading the distance between each pair of
// points in different components once: none when p is a leaf.
func (b *MSTBuilder) Delete(t *MST, p NodeID) {
	n := int32(len(t.pts))
	pos := int32(sort.Search(int(n), func(i int) bool { return NodeID(t.pts[i].node) >= p }))
	if pos == n || NodeID(t.pts[pos].node) != p {
		return
	}
	// Label the components, parents before children: the root's is 0
	// unless p is the root, and each child of p starts one. The edges
	// away from p are kept.
	part := slices.Grow(b.part[:0], 3*int(n)+1)[:3*n+1]
	comp := part[:n]
	k := int32(1)
	if pos == 0 {
		k = 0
	}
	kept := b.kept[:0]
	var w Weight
	for _, u := range b.topDown(t) {
		switch up := t.pts[u].up; {
		case u == pos:
		case up < 0:
			comp[u] = 0
		case up == pos:
			comp[u], k = k, k+1
		default:
			comp[u] = comp[up]
			kept = append(kept, mstEdge{w: t.pts[u].w, a: u, b: up})
			w += t.pts[u].w
		}
	}
	b.part = part
	// Group the points by component, counting first: component c is
	// members[first[c]:first[c+1]].
	members, first := part[n:2*n-1], part[2*n:2*n+k+1]
	clear(first)
	for u, c := range comp {
		if int32(u) != pos {
			first[c+1]++
		}
	}
	for c := int32(1); c < k; c++ {
		first[c] += first[c-1]
	}
	for u, c := range comp {
		if int32(u) != pos {
			members[first[c]] = int32(u)
			first[c]++
		}
	}
	copy(first[1:], first[:k]) // each first[c] had moved on to first[c+1]
	first[0] = 0
	// Prim over whole components, from component 0: cand[c] is the
	// lightest edge from the joined components to component c.
	cand := slices.Grow(b.cand[:0], int(k))[:k]
	rest := b.rest[:0]
	for c := int32(1); c < k; c++ {
		cand[c] = mstEdge{w: Infinite}
		rest = append(rest, c)
	}
	for s := int32(0); len(rest) > 0; {
		for _, u := range members[first[s]:first[s+1]] {
			row := b.g.tree(NodeID(t.pts[u].node))
			for _, c := range rest {
				for _, v := range members[first[c]:first[c+1]] {
					if e := t.edge(row, u, v); e.less(cand[c]) {
						cand[c] = e
					}
				}
			}
		}
		j := 0
		for i := 1; i < len(rest); i++ {
			if cand[rest[i]].less(cand[rest[j]]) {
				j = i
			}
		}
		s = rest[j]
		rest[j] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		kept = append(kept, cand[s])
		w += cand[s].w
	}
	b.cand, b.rest = cand, rest
	// Drop p's row; the points after it move down one.
	for j := range kept {
		e := &kept[j]
		if e.a > pos {
			e.a--
		}
		if e.b > pos {
			e.b--
		}
	}
	b.kept = kept
	t.pts = slices.Delete(t.pts, int(pos), int(pos)+1)
	t.weight = w
	if len(t.pts) > 0 {
		b.root(t)
	}
}

// root sets t's parents and edge weights from the tree edges in b.kept,
// numbered by t's points, breadth first from point 0.
func (b *MSTBuilder) root(t *MST) {
	head := b.resetHead(len(t.pts))
	next := b.next[:0]
	for j, e := range b.kept {
		next = append(next, head[e.a], head[e.b])
		head[e.a], head[e.b] = int32(2*j), int32(2*j+1)
	}
	b.next = next
	t.pts[0].up, t.pts[0].w = -1, 0
	order := append(b.order[:0], 0)
	for i := 0; i < len(order); i++ {
		u := order[i]
		for h := head[u]; h >= 0; h = next[h] {
			e := b.kept[h/2]
			v := e.a
			if v == u {
				v = e.b
			}
			if v == t.pts[u].up {
				continue
			}
			t.pts[v].up, t.pts[v].w = u, e.w
			order = append(order, v)
		}
	}
	b.order = order
}

// WeightWith returns the weight of the MST over t's points and p, which
// is t's own weight when p is already a point of t. It is Insert's walk
// without keeping a tree: it leaves t as it is and allocates nothing once
// the builder's scratch has grown to t's size.
func (b *MSTBuilder) WeightWith(t *MST, p NodeID) Weight {
	w, _ := b.walk(t, p, false)
	return w
}

// resetHead returns n empty adjacency list heads.
func (b *MSTBuilder) resetHead(n int) []int32 {
	b.head = slices.Grow(b.head[:0], n)[:n]
	for i := range b.head {
		b.head[i] = -1
	}
	return b.head
}

// walk is the linear vertex insertion of Chin and Houck. Some MST of the
// points plus p uses only t's edges and the star of p, so the walk visits
// t children first and, at each point u, settles the one cycle that u's
// tree edge closes through p: of that edge and cand[u], the lightest edge
// from u's side towards p, the lighter stays and the heavier becomes a
// candidate for u's parent. The root's candidate joins the two sides.
// Dropping the heaviest edge of each cycle under the strict order leaves
// the unique MST. walk returns its weight and whether p is new; with
// keep, b.kept receives its edges, the new point numbered len(t.pts).
func (b *MSTBuilder) walk(t *MST, p NodeID, keep bool) (Weight, bool) {
	k := int32(len(t.pts))
	row := b.g.tree(p)
	cand := b.cand[:0]
	for i, pt := range t.pts {
		if NodeID(pt.node) == p {
			b.cand = cand
			return t.weight, false
		}
		cand = append(cand, newMSTEdge(row[pt.node].dist, int32(i), k, NodeID(pt.node), p))
	}
	b.cand = cand
	b.kept = b.kept[:0]
	if k == 0 {
		return 0, true
	}
	order := b.topDown(t) // reversed, children first
	var total Weight
	for j := k - 1; j > 0; j-- {
		u := order[j]
		pt := &t.pts[u]
		lo, hi := newMSTEdge(pt.w, u, pt.up, NodeID(pt.node), NodeID(t.pts[pt.up].node)), cand[u]
		if hi.less(lo) {
			lo, hi = hi, lo
		}
		total += lo.w
		if keep {
			b.kept = append(b.kept, lo)
		}
		if hi.less(cand[pt.up]) {
			cand[pt.up] = hi
		}
	}
	if keep {
		b.kept = append(b.kept, cand[0])
	}
	return total + cand[0].w, true
}

// topDown returns t's points breadth first from the root over child
// lists, so parents come before their children. t must not be empty.
func (b *MSTBuilder) topDown(t *MST) []int32 {
	k := int32(len(t.pts))
	head := b.resetHead(int(k))
	next := slices.Grow(b.next[:0], int(k))[:k]
	for i := k - 1; i > 0; i-- {
		up := t.pts[i].up
		next[i], head[up] = head[up], i
	}
	b.next = next
	order := append(b.order[:0], 0)
	for i := 0; i < len(order); i++ {
		for c := head[order[i]]; c >= 0; c = next[c] {
			order = append(order, c)
		}
	}
	b.order = order
	return order
}
