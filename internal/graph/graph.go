// Package graph provides the weighted-graph substrate for the distributed
// transactional memory model of Busch et al. (IPPS 2020): communication
// graphs G = (V, E, w) with positive integer edge weights, shortest-path
// machinery (distances, routing next hops, explicit paths), diameter, and
// the canonical metric-closure minimum spanning tree (MST) that the tour
// batch scheduler and the lower-bound estimators share.
//
// New builds a graph from its whole edge list, and its edges never change
// afterwards, as the model's graph is fixed for the whole run. All query
// methods are safe for concurrent use; shortest-path trees are computed
// lazily per source and cached, and trees for distinct sources build
// concurrently (per-source build locks). WarmTrees builds every tree up
// front over a bounded set of goroutines; it is one of the two places in
// the module allowed to start goroutines (the gosites lint rule).
package graph

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"dtm/internal/pq"
)

// NodeID identifies a node of a Graph. Nodes are numbered 0..N()-1.
type NodeID int

// Weight is an edge weight or a path distance, in time steps.
// Sending a message (or moving an object) across an edge e takes w(e) steps.
type Weight int64

// Infinite is returned by Dist for unreachable node pairs.
const Infinite = Weight(1) << 62

// Edge is a directed half-edge in an adjacency list.
type Edge struct {
	To NodeID
	W  Weight
}

// Link is an undirected edge {U, V} of weight W in the list New builds a
// graph from.
type Link struct {
	U, V NodeID
	W    Weight
}

// Graph is an undirected weighted graph with positive integer edge weights.
// Its edges are fixed by New. The zero value is not usable.
type Graph struct {
	name string
	adj  [][]Edge
	m    int

	build []sync.Mutex             // per-source build locks: distinct sources build concurrently
	trees []atomic.Pointer[spTree] // lazily built shortest-path tree per source
}

// spTree is a shortest-path tree, one 16-byte row per node: node IDs fit
// int32 because New refuses larger graphs.
type spTree []treeEntry

type treeEntry struct {
	dist   Weight
	parent int32 // parent on the shortest-path tree; -1 for source/unreachable
	hop    int32 // first node after the source on the path; -1 for source/unreachable
}

// New returns the graph on n nodes with the given links. It refuses a node
// count outside [1, math.MaxInt32] (the largest node ID a shortest-path
// tree row holds), a self-loop, an endpoint out of range, and a weight
// outside [1, Infinite). Parallel links merge into one edge of the
// smallest weight, kept where the first of them falls in each adjacency
// list.
func New(n int, links []Link) (*Graph, error) {
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	// Each link adds at most one entry to each endpoint's list (parallel
	// links merge), so counting links per endpoint bounds every list, and
	// all lists are carved from one array.
	deg := make([]int, n)
	for _, l := range links {
		if err := checkLink(l, n); err != nil {
			return nil, err
		}
		deg[l.U]++
		deg[l.V]++
	}
	g := &Graph{
		adj:   make([][]Edge, n),
		build: make([]sync.Mutex, n),
		trees: make([]atomic.Pointer[spTree], n),
	}
	edges := make([]Edge, 2*len(links))
	for u, d := range deg {
		g.adj[u], edges = edges[:0:d], edges[d:]
	}
	// at maps an edge {lo, hi} to its positions in adj[lo] and adj[hi].
	at := make(map[[2]NodeID][2]int, len(links))
	for _, l := range links {
		u, v, w := min(l.U, l.V), max(l.U, l.V), l.W
		if i, ok := at[[2]NodeID{u, v}]; ok {
			if w < g.adj[u][i[0]].W {
				g.adj[u][i[0]].W = w
				g.adj[v][i[1]].W = w
			}
			continue
		}
		at[[2]NodeID{u, v}] = [2]int{len(g.adj[u]), len(g.adj[v])}
		g.adj[u] = append(g.adj[u], Edge{To: v, W: w})
		g.adj[v] = append(g.adj[v], Edge{To: u, W: w})
	}
	g.m = len(at)
	return g, nil
}

// checkLink refuses a self-loop, an endpoint outside [0, n) and a weight
// outside [1, Infinite).
func checkLink(l Link, n int) error {
	u, v, w := l.U, l.V, l.W
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
		return fmt.Errorf("graph: edge {%d,%d} out of range [0,%d)", u, v, n)
	}
	if w <= 0 {
		return fmt.Errorf("graph: edge {%d,%d} has non-positive weight %d", u, v, w)
	}
	// Dijkstra stores only distances below Infinite (2^62), so a stored
	// distance plus an edge weight stays below 2^63 and cannot wrap.
	if w >= Infinite {
		return fmt.Errorf("graph: edge {%d,%d} has weight %d, not below %d", u, v, w, Infinite)
	}
	return nil
}

// checkNodes refuses a node count New cannot hold. The topology
// constructors call it before they list any link, so an oversized request
// fails before it allocates.
func checkNodes(n int) error {
	if n <= 0 {
		return fmt.Errorf("graph: node count must be positive, got %d", n)
	}
	if n > math.MaxInt32 {
		return fmt.Errorf("graph: node count %d exceeds %d", n, math.MaxInt32)
	}
	return nil
}

// MustNew is New for statically valid inputs; it panics on error.
func MustNew(n int, links []Link) *Graph {
	g, err := New(n, links)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the topology name, if one was set by a constructor.
func (g *Graph) Name() string { return g.name }

// SetName labels the graph (used in experiment output).
func (g *Graph) SetName(name string) { g.name = name }

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) valid(u NodeID) bool { return u >= 0 && int(u) < g.N() }

// Neighbors returns the adjacency list of u. The returned slice must not be
// modified.
func (g *Graph) Neighbors(u NodeID) []Edge {
	if !g.valid(u) {
		return nil
	}
	return g.adj[u]
}

// EdgeWeight returns the weight of edge {u,v} and whether it exists. It
// scans u's adjacency list.
func (g *Graph) EdgeWeight(u, v NodeID) (Weight, bool) {
	for _, e := range g.Neighbors(u) {
		if e.To == v {
			return e.W, true
		}
	}
	return 0, false
}

// tree returns the cached shortest-path tree rooted at src, building it if
// needed. The read path is a single atomic pointer load — Dist/NextHop sit
// on the hot path of every simulation step, and even an uncontended RLock
// showed up in profiles — so concurrent sweep cells sharing one topology
// answer queries without synchronizing. A cache miss takes only the
// per-source build lock (re-checking under it), so WarmTrees builds
// trees for distinct sources concurrently.
func (g *Graph) tree(src NodeID) spTree {
	if t := g.trees[src].Load(); t != nil {
		return *t
	}
	g.build[src].Lock()
	defer g.build[src].Unlock()
	if t := g.trees[src].Load(); t != nil {
		return *t
	}
	t := g.dijkstra(src)
	g.trees[src].Store(&t)
	return t
}

// WarmTrees builds the shortest-path tree of every node with up to
// workers goroutines; workers <= 0 means GOMAXPROCS. Worker w builds
// source w, then claims the remaining sources one at a time from a shared
// cursor, so a worker the host slows down takes fewer. Each source's build
// lock makes a tree that another caller is building or has built cost
// only a wait or a load. Queries answer the same before and after: the
// warm-up changes when trees are built, never what they hold.
//
// Every worker builds its first source before it touches the cursor, so
// under the race detector that build is unordered against every other
// worker's, whatever the interleaving. That is what lets `go test -race`
// catch a shared write below this loop even at GOMAXPROCS=1, where one
// worker may claim all the rest before another starts.
func (g *Graph) WarmTrees(workers int) {
	n := g.N()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	var next atomic.Int64
	next.Store(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			for ; v < n; v = int(next.Add(1) - 1) {
				g.tree(NodeID(v))
			}
		}(w)
	}
	wg.Wait()
}

// dijkstra computes a deterministic shortest-path tree from src, breaking
// distance ties by smaller node ID so that routing is reproducible.
func (g *Graph) dijkstra(src NodeID) spTree {
	n := g.N()
	t := make(spTree, n)
	for i := range t {
		t[i] = treeEntry{dist: Infinite, parent: -1, hop: -1}
	}
	t[src].dist = 0
	frontier := pq.New(lessHeapItem, heapItem{node: src, dist: 0})
	done := make([]bool, n)
	for frontier.Len() > 0 {
		it := frontier.Pop()
		u := it.node
		if done[u] {
			continue
		}
		done[u] = true
		for _, e := range g.adj[u] {
			nd := it.dist + e.W
			v := &t[e.To]
			switch {
			case nd < v.dist:
				v.dist = nd
				v.parent = int32(u)
				frontier.Push(heapItem{node: e.To, dist: nd})
			case nd == v.dist && int32(u) < v.parent:
				// Deterministic tie-break: prefer the smaller-ID parent.
				v.parent = int32(u)
			}
		}
	}
	// Fill the first-hop table in a post-pass (parents can still change on
	// tie-breaks during the main loop). Each node walks its parent chain
	// until it reaches src or a node whose hop is already known, then the
	// whole chain shares that answer — amortized O(n) overall, and NextHop
	// becomes a single array lookup instead of an O(path length) walk.
	var chain []int32
	for v := range t {
		if NodeID(v) == src || t[v].dist == Infinite || t[v].hop != -1 {
			continue
		}
		chain = chain[:0]
		cur := int32(v)
		for NodeID(cur) != src && t[cur].hop == -1 {
			chain = append(chain, cur)
			cur = t[cur].parent
		}
		h := t[cur].hop // -1 when cur == src
		for i := len(chain) - 1; i >= 0; i-- {
			if h == -1 {
				h = chain[i] // first node after src on this branch
			}
			t[chain[i]].hop = h
		}
	}
	return t
}

// Dist returns the shortest-path distance from u to v, or Infinite if v is
// unreachable from u.
func (g *Graph) Dist(u, v NodeID) Weight {
	if !g.valid(u) || !g.valid(v) {
		return Infinite
	}
	return g.tree(u)[v].dist
}

// NextHop returns the first node after u on the (deterministic) shortest path
// from u to v. It returns u itself when u == v, and -1 when v is unreachable.
func (g *Graph) NextHop(u, v NodeID) NodeID {
	if u == v {
		return u
	}
	if !g.valid(u) || !g.valid(v) {
		return -1
	}
	r := g.tree(u)[v]
	if r.dist == Infinite {
		return -1
	}
	return NodeID(r.hop)
}

// Path returns the node sequence of the deterministic shortest path from u to
// v, inclusive of both endpoints. It returns nil when v is unreachable.
func (g *Graph) Path(u, v NodeID) []NodeID {
	if !g.valid(u) || !g.valid(v) {
		return nil
	}
	if u == v {
		return []NodeID{u}
	}
	t := g.tree(u)
	if t[v].dist == Infinite {
		return nil
	}
	var rev []NodeID
	for cur := v; cur != -1; cur = NodeID(t[cur].parent) {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Eccentricity returns the maximum finite distance from u to any node, or
// Infinite if some node is unreachable.
func (g *Graph) Eccentricity(u NodeID) Weight {
	var ecc Weight
	for _, r := range g.tree(u) {
		if r.dist == Infinite {
			return Infinite
		}
		ecc = max(ecc, r.dist)
	}
	return ecc
}

// Diameter returns the maximum shortest-path distance over all node pairs,
// or Infinite for a disconnected graph.
func (g *Graph) Diameter() Weight {
	var dia Weight
	for u := 0; u < g.N(); u++ {
		e := g.Eccentricity(NodeID(u))
		if e == Infinite {
			return Infinite
		}
		if e > dia {
			dia = e
		}
	}
	return dia
}

// Connected reports whether the graph is connected.
func (g *Graph) Connected() bool {
	return g.Eccentricity(0) != Infinite
}

// Ball returns the set of nodes within distance r of u (including u),
// sorted by node ID.
func (g *Graph) Ball(u NodeID, r Weight) []NodeID {
	var out []NodeID
	for v, e := range g.tree(u) {
		if e.dist <= r {
			out = append(out, NodeID(v))
		}
	}
	return out
}

// MetricMST returns the weight of a minimum spanning tree of the metric
// closure restricted to the given nodes. Duplicate nodes are ignored.
//
// Because any walk visiting all of nodes is at least as long as such a tree,
// MetricMST lower-bounds the travel time of a single mobile object that must
// visit every node in the set. It returns 0 for fewer than two distinct
// nodes and Infinite if the set is not mutually reachable.
func (g *Graph) MetricMST(nodes []NodeID) Weight {
	var t MST
	NewMSTBuilder(g).Build(&t, nodes)
	for _, pt := range t.pts {
		if pt.w == Infinite {
			return Infinite
		}
	}
	return t.weight
}

// MaxEdgeWeight returns the largest edge weight in the graph (0 for an
// edgeless graph).
func (g *Graph) MaxEdgeWeight() Weight {
	var mw Weight
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if e.W > mw {
				mw = e.W
			}
		}
	}
	return mw
}

// MinEdgeWeight returns the smallest edge weight in the graph (0 for an
// edgeless graph).
func (g *Graph) MinEdgeWeight() Weight {
	var mw Weight
	first := true
	for u := range g.adj {
		for _, e := range g.adj[u] {
			if first || e.W < mw {
				mw = e.W
				first = false
			}
		}
	}
	return mw
}

// String summarizes the graph.
func (g *Graph) String() string {
	name := g.name
	if name == "" {
		name = "graph"
	}
	return fmt.Sprintf("%s(n=%d, m=%d)", name, g.N(), g.M())
}

// heapItem orders the Dijkstra priority queue deterministically by
// (dist, node); the queue itself is an allocation-free pq.Heap.
type heapItem struct {
	node NodeID
	dist Weight
}

func lessHeapItem(a, b heapItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.node < b.node
}
