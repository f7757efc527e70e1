// Package coloring implements the weighted graph coloring of Section III-A
// of Busch et al. (IPPS 2020). A valid coloring assigns non-negative
// integer colors to vertices so that adjacent vertices' colors differ by at
// least their edge weight (Equation 1); in the scheduling application,
// vertices are transactions, edge weights are communication distances, and
// colors become execution times.
//
// GreedyColor realizes Lemma 1 (any uncolored vertex can receive a valid
// color at most 2Γ(v) − Δ(v) given an arbitrary valid partial coloring) and
// GreedyColorUniform realizes Lemma 2 (uniform weight β, colors multiples
// of β, bound Γ(v) up to one β term — see the note on that function).
package coloring

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"dtm/internal/graph"
)

// Color is a vertex color; in scheduling use it is a relative time offset.
type Color int64

// Uncolored marks a vertex with no assigned color.
const Uncolored = Color(-1)

// WEdge is a weighted half-edge of a conflict graph.
type WEdge struct {
	To VertexID
	W  graph.Weight
}

// VertexID indexes a vertex of a ConflictGraph.
type VertexID int

// ConflictGraph is a weighted undirected graph with a (partial) coloring.
// In the scheduling application it is the (extended) dependency graph H'_t.
type ConflictGraph struct {
	adj    [][]WEdge
	colors []Color
	forb   []Interval // reusable forbidden-interval scratch for GreedyColor*
	sweep  Sweep
}

// New returns a conflict graph with n uncolored vertices and no edges.
func New(n int) *ConflictGraph {
	cg := &ConflictGraph{}
	cg.Reset(n)
	return cg
}

// Reset reinitializes the graph to n uncolored vertices and no edges,
// reusing the existing adjacency storage. A Reset graph behaves exactly
// like one from New(n); schedulers that build one dependency graph per
// arrival use it to avoid reallocating every vertex slot.
func (cg *ConflictGraph) Reset(n int) {
	if cap(cg.adj) < n {
		cg.adj = make([][]WEdge, n)
		cg.colors = make([]Color, n)
	}
	cg.adj = cg.adj[:n]
	cg.colors = cg.colors[:n]
	for i := range cg.adj {
		cg.adj[i] = cg.adj[i][:0]
		cg.colors[i] = Uncolored
	}
}

// N returns the number of vertices.
func (cg *ConflictGraph) N() int { return len(cg.adj) }

// AddEdge inserts an undirected edge of weight w >= 0. A weight-0 edge
// imposes no constraint (the paper allows co-located conflicting
// transactions to share a step) and is dropped.
func (cg *ConflictGraph) AddEdge(u, v VertexID, w graph.Weight) error {
	if u == v {
		return fmt.Errorf("coloring: self-loop at %d", u)
	}
	if int(u) >= cg.N() || int(v) >= cg.N() || u < 0 || v < 0 {
		return fmt.Errorf("coloring: edge {%d,%d} out of range", u, v)
	}
	if w < 0 {
		return fmt.Errorf("coloring: negative weight %d", w)
	}
	if w == 0 {
		return nil
	}
	cg.adj[u] = append(cg.adj[u], WEdge{To: v, W: w})
	cg.adj[v] = append(cg.adj[v], WEdge{To: u, W: w})
	return nil
}

// SetColor pre-assigns a color (e.g. the remaining time until an
// already-scheduled transaction executes).
func (cg *ConflictGraph) SetColor(v VertexID, c Color) {
	cg.colors[v] = c
}

// ColorOf returns v's color (Uncolored if unset).
func (cg *ConflictGraph) ColorOf(v VertexID) Color { return cg.colors[v] }

// Degree returns Δ(v), the number of incident (positive-weight) edges.
func (cg *ConflictGraph) Degree(v VertexID) int { return len(cg.adj[v]) }

// WeightedDegree returns Γ(v), the sum of incident edge weights.
func (cg *ConflictGraph) WeightedDegree(v VertexID) graph.Weight {
	var g graph.Weight
	for _, e := range cg.adj[v] {
		g += e.W
	}
	return g
}

// Interval is an inclusive range of forbidden colors, [Lo, Hi]. A colored
// neighbor u across an edge of weight w forbids the open interval
// (c(u)−w, c(u)+w), i.e. Interval{c(u)−w+1, c(u)+w−1}.
type Interval struct{ Lo, Hi Color }

// Forbid is the forbidden interval induced by a neighbor of color cu
// across an edge of weight w (Equation 1).
func Forbid(cu Color, w graph.Weight) Interval {
	return Interval{Lo: cu - Color(w) + 1, Hi: cu + Color(w) - 1}
}

// maxMass is the largest forbidden mass the bitmap search takes. The
// bitmap covers [0, mass], so it never grows past maxMass+1 = 2^16 bits
// (8 KB). The benchmark workloads stay well below it (14906 at most, on
// stream-greedy); a larger mass means weights near graph.Infinite, and
// takes the sorted sweep.
const maxMass = 1<<16 - 1

// Sweep is the Lemma 1 and Lemma 2 color search together with its
// reusable bitmap. The zero value is ready to use. Each caller owns one
// next to its forbidden-interval buffer, so no search allocates once the
// bitmap has grown, and no bitmap is shared between goroutines.
type Sweep struct {
	bits []uint64
}

// SmallestValid returns the smallest non-negative color outside the union
// of the given forbidden intervals: the Lemma 1 color search, shared by
// the per-arrival rebuild path (GreedyColor), the incremental greedy and
// window engines and the batch coloring session. The result depends only
// on the interval set, not its order, so these can never disagree. forb
// is scratch: the search may reorder it.
//
// The intervals cover at most M = Σ|[max(Lo, 0), Hi]| non-negative
// colors, so some color in [0, M] is free; for greedy's colored
// neighbors M = Σ(2w−1), Lemma 1's own bound. The search marks the
// intervals in a bitmap of [0, M] and returns its first clear bit, in
// O(len(forb) + M/64) with no sort. Above maxMass it sorts and sweeps.
func (s *Sweep) SmallestValid(forb []Interval) Color {
	mass, ok := forbMass(forb)
	if !ok {
		return sortedSmallest(forb)
	}
	if mass == 0 {
		return 0
	}
	bm := s.bitmap(int(mass>>6) + 1)
	for _, f := range forb {
		lo, hi := max(f.Lo, 0), min(f.Hi, mass)
		if lo <= hi {
			setRange(bm, int(lo), int(hi))
		}
	}
	// A clear bit lies in [0, mass], so the scan stops inside bm.
	for i := 0; ; i++ {
		if w := bm[i]; w != ^uint64(0) {
			return Color(i<<6 + bits.TrailingZeros64(^w))
		}
	}
}

// SmallestValidMultiple returns the smallest positive multiple of beta
// (beta >= 1) outside the union of the given forbidden intervals: the
// Lemma 2 color search. Each interval is rewritten in place to the range
// of k−1 over the multiples kβ it forbids, and SmallestValid finds the
// smallest free k−1 = j, so the answer is β·(j+1). Like SmallestValid it
// is order-insensitive and treats forb as scratch.
func (s *Sweep) SmallestValidMultiple(forb []Interval, beta graph.Weight) Color {
	multiples(forb, beta)
	return Color(beta) * (s.SmallestValid(forb) + 1)
}

// multiples rewrites each interval [Lo, Hi] to [k0−1, k1−1], where
// k0 = ⌈max(Lo, β)/β⌉ and k1 = ⌊Hi/β⌋ bound the k ≥ 1 with Lo ≤ kβ ≤ Hi.
// An interval that forbids no positive multiple comes out empty.
func multiples(forb []Interval, beta graph.Weight) {
	b := Color(beta)
	for i, f := range forb {
		if f.Hi < b {
			forb[i] = Interval{Lo: 0, Hi: -1}
			continue
		}
		k0 := (max(f.Lo, b)-1)/b + 1
		forb[i] = Interval{Lo: k0 - 1, Hi: f.Hi/b - 1}
	}
}

// forbMass returns M, the number of non-negative colors the intervals
// cover counted with multiplicity; an empty interval (Lo > Hi) and one
// below 0 count 0. ok is false once M would pass maxMass: each width is
// compared with what is left under the cap before it is added, so the
// sum never overflows, whatever the ends.
func forbMass(forb []Interval) (mass Color, ok bool) {
	for _, f := range forb {
		lo := max(f.Lo, 0)
		if f.Hi < lo {
			continue
		}
		if f.Hi-lo >= maxMass-mass {
			return 0, false
		}
		mass += f.Hi - lo + 1
	}
	return mass, true
}

// minWords is the bitmap's first size: 128 B, masses up to 1023. One
// allocation then serves most short-lived owners (a one-shot
// ConflictGraph, a batch session), which would otherwise double their way
// up from one word.
const minWords = 16

// bitmap returns the Sweep's first n words, cleared, growing the backing
// array geometrically (from minWords up to the maxMass cap) so a run
// reallocates it only a few times.
func (s *Sweep) bitmap(n int) []uint64 {
	if cap(s.bits) < n {
		s.bits = make([]uint64, min(max(n, 2*cap(s.bits), minWords), maxMass>>6+1))
	}
	bm := s.bits[:n]
	clear(bm)
	return bm
}

// setRange sets bits lo through hi (inclusive) of bm, whole words at a
// time in the middle.
func setRange(bm []uint64, lo, hi int) {
	wl, wh := lo>>6, hi>>6
	first := ^uint64(0) << (lo & 63)
	last := ^uint64(0) >> (63 - hi&63)
	if wl == wh {
		bm[wl] |= first & last
		return
	}
	bm[wl] |= first
	for w := wl + 1; w < wh; w++ {
		bm[w] = ^uint64(0)
	}
	bm[wh] |= last
}

// sortedSmallest is the search by sorting: it sorts forb by Lo and sweeps
// upward from 0. It is the path for a mass above maxMass, where a bounded
// bitmap cannot hold the range, and the fuzzers' reference for the
// bitmap.
func sortedSmallest(forb []Interval) Color {
	slices.SortFunc(forb, func(a, b Interval) int { return cmp.Compare(a.Lo, b.Lo) })
	c := Color(0)
	for _, f := range forb {
		if f.Hi < c {
			continue
		}
		if f.Lo > c {
			break // gap found
		}
		c = f.Hi + 1
	}
	return c
}

// gatherForb collects the forbidden intervals from v's colored neighbors
// into the graph's reusable scratch buffer.
func (cg *ConflictGraph) gatherForb(v VertexID) []Interval {
	forb := cg.forb[:0]
	for _, e := range cg.adj[v] {
		cu := cg.colors[e.To]
		if cu == Uncolored {
			continue
		}
		forb = append(forb, Forbid(cu, e.W))
	}
	cg.forb = forb[:0] // keep the (possibly grown) buffer
	return forb
}

// GreedyColor assigns v the smallest non-negative color valid against its
// already-colored neighbors, records it, and returns it. Lemma 1
// guarantees the result is at most 2Γ(v) − Δ(v).
func (cg *ConflictGraph) GreedyColor(v VertexID) Color {
	c := cg.sweep.SmallestValid(cg.gatherForb(v))
	cg.colors[v] = c
	return c
}

// GreedyColorUniform assigns v the smallest positive multiple of beta that
// is valid against its already-colored neighbors, per Lemma 2. Edge weights
// need not all equal beta: the scheduler's extended dependency graph adds
// "current transaction" vertices whose edges carry a floor constraint
// (a ceil-to-β multiple of the object's travel time); those are honored too.
//
// Note on the bound: with Δ(v) colored neighbors all occupying distinct
// positive multiples of β, the smallest free positive multiple can be
// (Δ(v)+1)·β = Γ(v)+β, one β term above the Γ(v) stated in Lemma 2; the
// paper's scheduling theorems are asymptotically unaffected. Tests assert
// the ≤ Γ(v)+β bound for the all-weights-β case.
func (cg *ConflictGraph) GreedyColorUniform(v VertexID, beta graph.Weight) Color {
	c := cg.sweep.SmallestValidMultiple(cg.gatherForb(v), beta)
	cg.colors[v] = c
	return c
}

// Validate checks Equation 1 for every edge whose endpoints are both
// colored: |c(u) − c(v)| >= w(u,v).
func (cg *ConflictGraph) Validate() error {
	for u := range cg.adj {
		cu := cg.colors[u]
		if cu == Uncolored {
			continue
		}
		for _, e := range cg.adj[u] {
			cv := cg.colors[e.To]
			if cv == Uncolored {
				continue
			}
			d := cu - cv
			if d < 0 {
				d = -d
			}
			if d < Color(e.W) {
				return fmt.Errorf("coloring: edge {%d,%d} weight %d violated by colors %d,%d",
					u, e.To, e.W, cu, cv)
			}
		}
	}
	return nil
}
