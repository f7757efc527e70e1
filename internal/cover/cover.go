// Package cover builds the hierarchical sparse cover used by the
// distributed bucket schedule (Section V of Busch et al., IPPS 2020).
//
// The hierarchy has H1 = ceil(log2 D) + 1 layers. Each layer l consists of
// a small number of sub-layers; every sub-layer is a partition of the nodes
// into clusters of weak diameter O(2^l) (distances measured in G), and for
// every node u some cluster at layer l contains u's (2^l - 1)-neighborhood —
// that cluster is u's home cluster at layer l. One node per cluster is the
// designated leader.
//
// The construction here is randomized ball carving with random radii
// (Gupta-Hajiaghayi-Räcke / Sharma-Busch lineage, the papers the IPPS paper
// cites): each sub-layer carves clusters around a random permutation of
// centers with radius in [2 * 2^l, 4 * 2^l); nodes whose neighborhood is
// padded inside their cluster become homed; sub-layers are added until
// every node is homed. Verify checks every property the scheduling lemmas
// consume.
package cover

import (
	"fmt"
	"math/bits"
	"math/rand"

	"dtm/internal/graph"
)

// Cluster is one cluster of one sub-layer.
type Cluster struct {
	Layer    int
	SubLayer int
	Index    int
	Nodes    []graph.NodeID // sorted
	Leader   graph.NodeID   // smallest node ID
}

// SubLayer is a partition of all nodes into clusters.
type SubLayer struct {
	Clusters  []*Cluster
	clusterOf []int // node -> cluster index
}

// ClusterOf returns the sub-layer's cluster containing u.
func (s *SubLayer) ClusterOf(u graph.NodeID) *Cluster {
	return s.Clusters[s.clusterOf[u]]
}

// Hierarchy is the full layered sparse cover.
type Hierarchy struct {
	G      *graph.Graph
	Layers [][]*SubLayer // [layer][sublayer]
	home   [][]*Cluster  // [layer][node]
}

// maxSubLayers bounds the randomized construction; with padding probability
// >= 1/2 per sub-layer the expected need is O(log n), so this cap is never
// hit in practice and exists to turn bad luck into an error, not a hang.
func maxSubLayers(n int) int { return 8*bits.Len(uint(n)) + 16 }

// Build constructs the hierarchy. Deterministic for a given seed.
func Build(g *graph.Graph, seed int64) (*Hierarchy, error) {
	if g == nil {
		return nil, fmt.Errorf("cover: nil graph")
	}
	d := g.Diameter()
	if d == graph.Infinite {
		return nil, fmt.Errorf("cover: graph is disconnected")
	}
	if d < 1 {
		d = 1
	}
	numLayers := bits.Len64(uint64(d-1)) + 1 // ceil(log2 D) + 1 (layer indices 0..H1-1)
	rng := rand.New(rand.NewSource(seed))
	h := &Hierarchy{G: g}
	n := g.N()
	for l := 0; l < numLayers; l++ {
		radius := graph.Weight(1) << uint(l) // 2^l
		homed := make([]*Cluster, n)
		unhomed := n
		var subs []*SubLayer
		for unhomed > 0 {
			if len(subs) >= maxSubLayers(n) {
				return nil, fmt.Errorf("cover: layer %d needed more than %d sub-layers (n=%d)", l, maxSubLayers(n), n)
			}
			sub := carve(g, rng, radius, l, len(subs))
			subs = append(subs, sub)
			// A node is homed by this sub-layer if its (2^l - 1)-ball is
			// contained in its cluster.
			for u := 0; u < n; u++ {
				if homed[u] != nil {
					continue
				}
				c := sub.ClusterOf(graph.NodeID(u))
				if ballInside(g, graph.NodeID(u), radius-1, sub, c.Index) {
					homed[u] = c
					unhomed--
				}
			}
		}
		h.Layers = append(h.Layers, subs)
		h.home = append(h.home, homed)
	}
	return h, nil
}

// carve builds one sub-layer: a random-order, random-radius ball partition.
// Cluster radius is in [2r, 4r) — comfortably above the (r-1)-ball a node
// needs padded, which keeps the per-sub-layer padding probability high — so
// weak cluster diameter is < 8r.
func carve(g *graph.Graph, rng *rand.Rand, r graph.Weight, layer, subIdx int) *SubLayer {
	n := g.N()
	clusterOf := make([]int, n)
	for i := range clusterOf {
		clusterOf[i] = -1
	}
	carveR := 2*r + graph.Weight(rng.Int63n(int64(2*r))) // [2r, 4r)
	sub := &SubLayer{clusterOf: clusterOf}
	for _, c := range rng.Perm(n) {
		center := graph.NodeID(c)
		if clusterOf[center] != -1 {
			continue
		}
		idx := len(sub.Clusters)
		cl := &Cluster{Layer: layer, SubLayer: subIdx, Index: idx, Leader: center}
		for _, v := range g.Ball(center, carveR) {
			if clusterOf[v] == -1 {
				clusterOf[v] = idx
				cl.Nodes = append(cl.Nodes, v)
				if v < cl.Leader {
					cl.Leader = v
				}
			}
		}
		sub.Clusters = append(sub.Clusters, cl)
	}
	return sub
}

// ballInside reports whether every node within dist r of u belongs to
// cluster idx of sub.
func ballInside(g *graph.Graph, u graph.NodeID, r graph.Weight, sub *SubLayer, idx int) bool {
	if r < 0 {
		return true
	}
	for _, v := range g.Ball(u, r) {
		if sub.clusterOf[v] != idx {
			return false
		}
	}
	return true
}

// NumLayers returns the number of layers H1.
func (h *Hierarchy) NumLayers() int { return len(h.Layers) }

// MaxSubLayers returns the largest sub-layer count over all layers (the H2
// of the analysis).
func (h *Hierarchy) MaxSubLayers() int {
	max := 0
	for _, subs := range h.Layers {
		if len(subs) > max {
			max = len(subs)
		}
	}
	return max
}

// Home returns u's home cluster at the given layer: a cluster containing
// u's (2^layer - 1)-neighborhood.
func (h *Hierarchy) Home(layer int, u graph.NodeID) *Cluster {
	return h.home[layer][u]
}

// HomeForRadius returns the lowest layer whose home cluster of u contains
// u's y-neighborhood, and that cluster (Algorithm 3, line 5).
func (h *Hierarchy) HomeForRadius(u graph.NodeID, y graph.Weight) (int, *Cluster) {
	for l := 0; l < h.NumLayers(); l++ {
		if (graph.Weight(1)<<uint(l))-1 >= y {
			return l, h.home[l][u]
		}
	}
	l := h.NumLayers() - 1
	return l, h.home[l][u]
}

// WeakDiameter returns the cluster's weak diameter (max pairwise distance
// in G between its nodes).
func (h *Hierarchy) WeakDiameter(c *Cluster) graph.Weight {
	var d graph.Weight
	for i := 0; i < len(c.Nodes); i++ {
		for j := i + 1; j < len(c.Nodes); j++ {
			if dd := h.G.Dist(c.Nodes[i], c.Nodes[j]); dd > d {
				d = dd
			}
		}
	}
	return d
}

// Verify checks the structural properties the Section V lemmas rely on:
// every sub-layer is a partition; every home cluster contains the needed
// neighborhood; weak diameters are below 8 * 2^layer, twice the largest
// carving radius; and every node has a home at every layer.
func (h *Hierarchy) Verify() error {
	n := h.G.N()
	for l, subs := range h.Layers {
		radius := graph.Weight(1) << uint(l)
		for si, sub := range subs {
			seen := make([]bool, n)
			for _, cl := range sub.Clusters {
				for _, v := range cl.Nodes {
					if seen[v] {
						return fmt.Errorf("cover: node %d in two clusters of layer %d sub-layer %d", v, l, si)
					}
					seen[v] = true
					if sub.clusterOf[v] != cl.Index {
						return fmt.Errorf("cover: clusterOf inconsistent for node %d", v)
					}
				}
				if wd := h.WeakDiameter(cl); wd >= 8*radius {
					return fmt.Errorf("cover: layer %d cluster diameter %d >= %d", l, wd, 8*radius)
				}
			}
			for v := 0; v < n; v++ {
				if !seen[v] {
					return fmt.Errorf("cover: node %d missing from layer %d sub-layer %d", v, l, si)
				}
			}
		}
		for u := 0; u < n; u++ {
			home := h.home[l][u]
			if home == nil {
				return fmt.Errorf("cover: node %d has no home at layer %d", u, l)
			}
			sub := subs[home.SubLayer]
			if !ballInside(h.G, graph.NodeID(u), radius-1, sub, home.Index) {
				return fmt.Errorf("cover: home of node %d at layer %d misses its %d-neighborhood", u, l, radius-1)
			}
		}
	}
	return nil
}
