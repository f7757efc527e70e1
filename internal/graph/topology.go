package graph

import (
	"fmt"
	"math/rand"
)

// This file provides the specialized communication architectures studied in
// the paper (Section I, "Contributions"): Clique, Hypercube, Butterfly,
// Grid, Line, Cluster, and Star, plus a few generic families (Ring, Tree,
// random connected) used by the test suite and the workload generators.

// Clique returns the complete graph on n nodes with unit edge weights.
func Clique(n int) (*Graph, error) {
	return WeightedClique(n, 1)
}

// WeightedClique returns the complete graph on n nodes where every edge has
// weight beta. The paper analyzes the hypercube by overlaying it with a
// weighted clique of beta = log n (Section III-D).
func WeightedClique(n int, beta Weight) (*Graph, error) {
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if err := g.AddEdge(NodeID(u), NodeID(v), beta); err != nil {
				return nil, err
			}
		}
	}
	if beta == 1 {
		g.SetName(fmt.Sprintf("clique%d", n))
	} else {
		g.SetName(fmt.Sprintf("clique%d/w%d", n, beta))
	}
	return g, nil
}

// Line returns the path graph on n ordered nodes with unit edge weights.
func Line(n int) (*Graph, error) {
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	for u := 0; u+1 < n; u++ {
		if err := g.AddEdge(NodeID(u), NodeID(u+1), 1); err != nil {
			return nil, err
		}
	}
	g.SetName(fmt.Sprintf("line%d", n))
	return g, nil
}

// Ring returns the cycle graph on n >= 3 nodes with unit edge weights.
func Ring(n int) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("graph: ring needs at least 3 nodes, got %d", n)
	}
	g, err := Line(n)
	if err != nil {
		return nil, err
	}
	if err := g.AddEdge(NodeID(n-1), 0, 1); err != nil {
		return nil, err
	}
	g.SetName(fmt.Sprintf("ring%d", n))
	return g, nil
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
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	// Mixed-radix coordinates: node id = sum coord[i] * stride[i].
	strides := make([]int, len(dims))
	s := 1
	for i := range dims {
		strides[i] = s
		s *= dims[i]
	}
	coord := make([]int, len(dims))
	for id := 0; id < n; id++ {
		rest := id
		for i := range dims {
			coord[i] = rest % dims[i]
			rest /= dims[i]
		}
		for i := range dims {
			if coord[i]+1 < dims[i] {
				if err := g.AddEdge(NodeID(id), NodeID(id+strides[i]), 1); err != nil {
					return nil, err
				}
			}
		}
	}
	g.SetName(fmt.Sprintf("grid%v", dims))
	return g, nil
}

// Hypercube returns the dim-dimensional hypercube on n = 2^dim nodes with
// unit edge weights. Two nodes are adjacent iff their IDs differ in exactly
// one bit, so any pair is connected by a path of at most dim = log n edges.
func Hypercube(dim int) (*Graph, error) {
	if dim < 1 || dim > 20 {
		return nil, fmt.Errorf("graph: hypercube dimension must be in [1,20], got %d", dim)
	}
	n := 1 << dim
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		for b := 0; b < dim; b++ {
			v := u ^ (1 << b)
			if u < v {
				if err := g.AddEdge(NodeID(u), NodeID(v), 1); err != nil {
					return nil, err
				}
			}
		}
	}
	g.SetName(fmt.Sprintf("hypercube%d", dim))
	return g, nil
}

// Butterfly returns the dim-dimensional (non-wrapped) butterfly network:
// (dim+1) levels of 2^dim rows. Node (l, r) connects to (l+1, r) and to
// (l+1, r XOR 2^l), all edges weight 1. n = (dim+1) * 2^dim.
func Butterfly(dim int) (*Graph, error) {
	if dim < 1 || dim > 16 {
		return nil, fmt.Errorf("graph: butterfly dimension must be in [1,16], got %d", dim)
	}
	rows := 1 << dim
	n := (dim + 1) * rows
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	id := func(level, row int) NodeID { return NodeID(level*rows + row) }
	for level := 0; level < dim; level++ {
		for row := 0; row < rows; row++ {
			if err := g.AddEdge(id(level, row), id(level+1, row), 1); err != nil {
				return nil, err
			}
			if err := g.AddEdge(id(level, row), id(level+1, row^(1<<level)), 1); err != nil {
				return nil, err
			}
		}
	}
	g.SetName(fmt.Sprintf("butterfly%d", dim))
	return g, nil
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
	n := spec.Alpha * spec.Beta
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	for c := 0; c < spec.Alpha; c++ {
		base := c * spec.Beta
		for i := 0; i < spec.Beta; i++ {
			for j := i + 1; j < spec.Beta; j++ {
				if err := g.AddEdge(NodeID(base+i), NodeID(base+j), 1); err != nil {
					return nil, err
				}
			}
		}
	}
	for c1 := 0; c1 < spec.Alpha; c1++ {
		for c2 := c1 + 1; c2 < spec.Alpha; c2++ {
			if err := g.AddEdge(NodeID(c1*spec.Beta), NodeID(c2*spec.Beta), spec.Gamma); err != nil {
				return nil, err
			}
		}
	}
	g.SetName(fmt.Sprintf("cluster(a%d,b%d,g%d)", spec.Alpha, spec.Beta, spec.Gamma))
	return g, nil
}

// ClusterBridge returns the bridge node of clique c in a Cluster graph built
// from spec.
func ClusterBridge(spec ClusterSpec, c int) NodeID { return NodeID(c * spec.Beta) }

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
	n := 1 + spec.Rays*spec.RayLen
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	for r := 0; r < spec.Rays; r++ {
		base := 1 + r*spec.RayLen
		if err := g.AddEdge(0, NodeID(base), 1); err != nil {
			return nil, err
		}
		for j := 0; j+1 < spec.RayLen; j++ {
			if err := g.AddEdge(NodeID(base+j), NodeID(base+j+1), 1); err != nil {
				return nil, err
			}
		}
	}
	g.SetName(fmt.Sprintf("star(r%d,l%d)", spec.Rays, spec.RayLen))
	return g, nil
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
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	for child := 1; child < n; child++ {
		parent := (child - 1) / branching
		if err := g.AddEdge(NodeID(parent), NodeID(child), 1); err != nil {
			return nil, err
		}
	}
	g.SetName(fmt.Sprintf("tree(b%d,d%d)", branching, depth))
	return g, nil
}

// RandomConnected returns a connected random graph: a random spanning tree
// plus extra random edges, with weights uniform in [1, maxW]. The result is
// deterministic for a given seed.
func RandomConnected(n, extraEdges int, maxW Weight, seed int64) (*Graph, error) {
	if maxW < 1 {
		return nil, fmt.Errorf("graph: maxW must be >= 1, got %d", maxW)
	}
	g, err := New(n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := NodeID(perm[i])
		v := NodeID(perm[rng.Intn(i)])
		if err := g.AddEdge(u, v, 1+Weight(rng.Int63n(int64(maxW)))); err != nil {
			return nil, err
		}
	}
	for e := 0; e < extraEdges; e++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		// AddEdge coalesces duplicates, keeping the smaller weight.
		if err := g.AddEdge(u, v, 1+Weight(rng.Int63n(int64(maxW)))); err != nil {
			return nil, err
		}
	}
	g.SetName(fmt.Sprintf("random(n%d,s%d)", n, seed))
	return g, nil
}
