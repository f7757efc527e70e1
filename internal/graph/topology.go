package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// This file provides the specialized communication architectures studied in
// the paper (Section I, "Contributions"): Clique, Hypercube, Butterfly,
// Grid, Line, Cluster, and Star, plus a few generic families (Ring, Tree,
// random connected) used by the test suite and the workload generators.
// Each lists its links and builds the graph with one call to New.

// newNamed is New followed by SetName.
func newNamed(name string, n int, links []Link) (*Graph, error) {
	g, err := New(n, links)
	if err != nil {
		return nil, err
	}
	g.SetName(name)
	return g, nil
}

// Clique returns the complete graph on n nodes with unit edge weights.
func Clique(n int) (*Graph, error) {
	return WeightedClique(n, 1)
}

// WeightedClique returns the complete graph on n nodes where every edge has
// weight beta. The paper analyzes the hypercube by overlaying it with a
// weighted clique of beta = log n (Section III-D).
func WeightedClique(n int, beta Weight) (*Graph, error) {
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	links := make([]Link, 0, n*(n-1)/2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			links = append(links, Link{NodeID(u), NodeID(v), beta})
		}
	}
	name := fmt.Sprintf("clique%d", n)
	if beta != 1 {
		name += fmt.Sprintf("/w%d", beta)
	}
	return newNamed(name, n, links)
}

// Line returns the path graph on n ordered nodes with unit edge weights.
func Line(n int) (*Graph, error) {
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	return newNamed(fmt.Sprintf("line%d", n), n, pathLinks(n))
}

// pathLinks lists the unit links {u, u+1} of the path on n >= 1 nodes.
func pathLinks(n int) []Link {
	links := make([]Link, 0, n)
	for u := 0; u+1 < n; u++ {
		links = append(links, Link{NodeID(u), NodeID(u + 1), 1})
	}
	return links
}

// Ring returns the cycle graph on n >= 3 nodes with unit edge weights.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs at least 3 nodes, got %d", n)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	return newNamed(fmt.Sprintf("ring%d", n), n, append(pathLinks(n), Link{NodeID(n - 1), 0, 1}))
}

// Grid returns the multi-dimensional lattice with the given side lengths and
// unit edge weights. Grid(a) is a line, Grid(a, b) the a-by-b mesh, and
// Grid(2, 2, ..., 2) with d twos is the d-dimensional hypercube (the
// "log n-dimensional grid" of Section III-D).
func Grid(dims ...int) (*Graph, error) {
	if len(dims) == 0 {
		return nil, fmt.Errorf("graph: grid needs at least one dimension")
	}
	n := 1
	for _, d := range dims {
		if d < 1 {
			return nil, fmt.Errorf("graph: grid dimension must be >= 1, got %d", d)
		}
		if n > 1<<22/d {
			return nil, fmt.Errorf("graph: grid too large")
		}
		n *= d
	}
	// Mixed-radix coordinates: node id = sum coord[i] * stride[i].
	strides := make([]int, len(dims))
	s := 1
	for i := range dims {
		strides[i] = s
		s *= dims[i]
	}
	coord := make([]int, len(dims))
	var links []Link
	for id := 0; id < n; id++ {
		rest := id
		for i := range dims {
			coord[i] = rest % dims[i]
			rest /= dims[i]
		}
		for i := range dims {
			if coord[i]+1 < dims[i] {
				links = append(links, Link{NodeID(id), NodeID(id + strides[i]), 1})
			}
		}
	}
	return newNamed(fmt.Sprintf("grid%v", dims), n, links)
}

// Hypercube returns the dim-dimensional hypercube on n = 2^dim nodes with
// unit edge weights. Two nodes are adjacent iff their IDs differ in exactly
// one bit, so any pair is connected by a path of at most dim = log n edges.
func Hypercube(dim int) (*Graph, error) {
	if dim < 1 || dim > 20 {
		return nil, fmt.Errorf("graph: hypercube dimension must be in [1,20], got %d", dim)
	}
	n := 1 << dim
	var links []Link
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			if v := u ^ (1 << b); u < v {
				links = append(links, Link{NodeID(u), NodeID(v), 1})
			}
		}
	}
	return newNamed(fmt.Sprintf("hypercube%d", dim), n, links)
}

// Butterfly returns the dim-dimensional (non-wrapped) butterfly network:
// (dim+1) levels of 2^dim rows. Node (l, r) connects to (l+1, r) and to
// (l+1, r XOR 2^l), all edges weight 1. n = (dim+1) * 2^dim.
func Butterfly(dim int) (*Graph, error) {
	if dim < 1 || dim > 16 {
		return nil, fmt.Errorf("graph: butterfly dimension must be in [1,16], got %d", dim)
	}
	rows := 1 << dim
	id := func(level, row int) NodeID { return NodeID(level*rows + row) }
	var links []Link
	for level := 0; level < dim; level++ {
		for row := 0; row < rows; row++ {
			links = append(links,
				Link{id(level, row), id(level+1, row), 1},
				Link{id(level, row), id(level+1, row^(1<<level)), 1})
		}
	}
	return newNamed(fmt.Sprintf("butterfly%d", dim), (dim+1)*rows, links)
}

// ClusterSpec describes the cluster topology of Section IV-D: alpha cliques
// ("clusters") of beta nodes each, with unit-weight intra-clique edges. Each
// clique's node 0 is its designated bridge; bridges of different cliques are
// pairwise connected by edges of weight gamma >= beta.
type ClusterSpec struct {
	Alpha int    // number of cliques
	Beta  int    // nodes per clique
	Gamma Weight // bridge edge weight, gamma >= beta
}

// Cluster builds the cluster topology. Node c*beta + i is node i of clique c;
// node c*beta is clique c's bridge.
func Cluster(spec ClusterSpec) (*Graph, error) {
	if spec.Alpha < 1 || spec.Beta < 1 {
		return nil, fmt.Errorf("graph: cluster needs alpha,beta >= 1, got %d,%d", spec.Alpha, spec.Beta)
	}
	if spec.Gamma < Weight(spec.Beta) {
		return nil, fmt.Errorf("graph: cluster needs gamma >= beta, got gamma=%d beta=%d", spec.Gamma, spec.Beta)
	}
	if spec.Alpha > math.MaxInt32/spec.Beta {
		return nil, fmt.Errorf("graph: cluster of %d cliques of %d nodes exceeds %d nodes", spec.Alpha, spec.Beta, math.MaxInt32)
	}
	var links []Link
	for c := 0; c < spec.Alpha; c++ {
		base := c * spec.Beta
		for i := 0; i < spec.Beta; i++ {
			for j := i + 1; j < spec.Beta; j++ {
				links = append(links, Link{NodeID(base + i), NodeID(base + j), 1})
			}
		}
	}
	for c1 := 0; c1 < spec.Alpha; c1++ {
		for c2 := c1 + 1; c2 < spec.Alpha; c2++ {
			links = append(links, Link{NodeID(c1 * spec.Beta), NodeID(c2 * spec.Beta), spec.Gamma})
		}
	}
	return newNamed(fmt.Sprintf("cluster(a%d,b%d,g%d)", spec.Alpha, spec.Beta, spec.Gamma), spec.Alpha*spec.Beta, links)
}

// StarSpec describes the star topology of Section IV-D: a central node
// connected to Rays rays, each a path of RayLen nodes; all edges weight 1.
type StarSpec struct {
	Rays   int
	RayLen int
}

// Star builds the star topology. Node 0 is the center; node 1 + r*RayLen + j
// is the j-th node (j = 0 nearest the center) of ray r.
func Star(spec StarSpec) (*Graph, error) {
	if spec.Rays < 1 || spec.RayLen < 1 {
		return nil, fmt.Errorf("graph: star needs rays,rayLen >= 1, got %d,%d", spec.Rays, spec.RayLen)
	}
	if spec.Rays > (math.MaxInt32-1)/spec.RayLen {
		return nil, fmt.Errorf("graph: star of %d rays of %d nodes exceeds %d nodes", spec.Rays, spec.RayLen, math.MaxInt32)
	}
	var links []Link
	for r := 0; r < spec.Rays; r++ {
		base := 1 + r*spec.RayLen
		links = append(links, Link{0, NodeID(base), 1})
		for j := 0; j+1 < spec.RayLen; j++ {
			links = append(links, Link{NodeID(base + j), NodeID(base + j + 1), 1})
		}
	}
	return newNamed(fmt.Sprintf("star(r%d,l%d)", spec.Rays, spec.RayLen), 1+spec.Rays*spec.RayLen, links)
}

// Tree returns the complete rooted tree with the given branching factor and
// depth (a root at depth 0), unit edge weights.
func Tree(branching, depth int) (*Graph, error) {
	if branching < 1 || depth < 0 {
		return nil, fmt.Errorf("graph: tree needs branching >= 1, depth >= 0")
	}
	n := 1
	levelSize := 1
	for d := 0; d < depth; d++ {
		levelSize *= branching
		n += levelSize
		if n > 1<<22 {
			return nil, fmt.Errorf("graph: tree too large")
		}
	}
	links := make([]Link, 0, n-1)
	for child := 1; child < n; child++ {
		links = append(links, Link{NodeID((child - 1) / branching), NodeID(child), 1})
	}
	return newNamed(fmt.Sprintf("tree(b%d,d%d)", branching, depth), n, links)
}

// RandomConnected returns a connected random graph: a random spanning tree
// plus extra random edges, with weights uniform in [1, maxW]. The result is
// deterministic for a given seed.
func RandomConnected(n, extraEdges int, maxW Weight, seed int64) (*Graph, error) {
	if maxW < 1 {
		return nil, fmt.Errorf("graph: maxW must be >= 1, got %d", maxW)
	}
	if err := checkNodes(n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	var links []Link
	for i := 1; i < n; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[rng.Intn(i)])
		links = append(links, Link{u, v, 1 + Weight(rng.Int63n(int64(maxW)))})
	}
	for e := 0; e < extraEdges; e++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		// New merges duplicates, keeping the smaller weight.
		links = append(links, Link{u, v, 1 + Weight(rng.Int63n(int64(maxW)))})
	}
	return newNamed(fmt.Sprintf("random(n%d,s%d)", n, seed), n, links)
}
