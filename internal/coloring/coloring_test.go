package coloring

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dtm/internal/graph"
)

func TestAddEdgeValidation(t *testing.T) {
	cg := New(3)
	if err := cg.AddEdge(0, 0, 1); err == nil {
		t.Error("self-loop: want error")
	}
	if err := cg.AddEdge(0, 5, 1); err == nil {
		t.Error("out of range: want error")
	}
	if err := cg.AddEdge(0, 1, -2); err == nil {
		t.Error("negative weight: want error")
	}
	// Weight-0 edges impose no constraint and are dropped.
	if err := cg.AddEdge(0, 1, 0); err != nil {
		t.Errorf("weight-0 edge: %v", err)
	}
	if cg.Degree(0) != 0 {
		t.Error("weight-0 edge should not appear")
	}
}

func TestGreedyColorSimpleChain(t *testing.T) {
	// 0 -5- 1 -3- 2, color in order 0,1,2.
	cg := New(3)
	mustEdge(t, cg, 0, 1, 5)
	mustEdge(t, cg, 1, 2, 3)
	if c := cg.GreedyColor(0); c != 0 {
		t.Errorf("c(0) = %d, want 0", c)
	}
	if c := cg.GreedyColor(1); c != 5 {
		t.Errorf("c(1) = %d, want 5", c)
	}
	if c := cg.GreedyColor(2); c != 0 {
		t.Errorf("c(2) = %d, want 0 (only constrained by vertex 1)", c)
	}
	if err := cg.Validate(); err != nil {
		t.Error(err)
	}
}

func mustEdge(t *testing.T, cg *ConflictGraph, u, v VertexID, w graph.Weight) {
	t.Helper()
	if err := cg.AddEdge(u, v, w); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyColorFindsGapBetweenNeighbors(t *testing.T) {
	// Vertex 2 adjacent to 0 (color 0, weight 2) and 1 (color 10, weight 2):
	// valid colors are [2,8] or >= 12; greedy picks 2.
	cg := New(3)
	mustEdge(t, cg, 2, 0, 2)
	mustEdge(t, cg, 2, 1, 2)
	cg.SetColor(0, 0)
	cg.SetColor(1, 10)
	if c := cg.GreedyColor(2); c != 2 {
		t.Errorf("c(2) = %d, want 2", c)
	}
}

func TestGreedyColorOverlappingForbiddenIntervals(t *testing.T) {
	// Neighbors at colors 0 (w=4) and 3 (w=4): forbidden (-4,4) U (-1,7),
	// smallest valid is 7.
	cg := New(3)
	mustEdge(t, cg, 2, 0, 4)
	mustEdge(t, cg, 2, 1, 4)
	cg.SetColor(0, 0)
	cg.SetColor(1, 3)
	if c := cg.GreedyColor(2); c != 7 {
		t.Errorf("c(2) = %d, want 7", c)
	}
}

// Lemma 1: the greedy color never exceeds 2Γ(v) − Δ(v), for any coloring
// order on random weighted graphs.
func TestLemma1Bound(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		cg := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					if err := cg.AddEdge(VertexID(u), VertexID(v), 1+graph.Weight(rng.Intn(8))); err != nil {
						return false
					}
				}
			}
		}
		order := rng.Perm(n)
		for _, v := range order {
			c := cg.GreedyColor(VertexID(v))
			bound := 2*Color(cg.WeightedDegree(VertexID(v))) - Color(cg.Degree(VertexID(v)))
			if bound < 0 {
				bound = 0
			}
			if c > bound {
				return false
			}
		}
		return cg.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Lemma 2: with uniform weight β and neighbors colored on multiples of β,
// the greedy uniform color is a positive multiple of β at most Γ(v) + β.
func TestLemma2Bound(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		beta := graph.Weight(1 + rng.Intn(6))
		cg := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					if err := cg.AddEdge(VertexID(u), VertexID(v), beta); err != nil {
						return false
					}
				}
			}
		}
		for _, v := range rng.Perm(n) {
			c := cg.GreedyColorUniform(VertexID(v), beta)
			if c <= 0 || c%Color(beta) != 0 {
				return false
			}
			if c > Color(cg.WeightedDegree(VertexID(v)))+Color(beta) {
				return false
			}
		}
		return cg.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGreedyColorUniformHonorsFloorEdges(t *testing.T) {
	// Vertex 1 has a "current transaction" neighbor 0 at color 0 with a
	// floor edge of weight 3β: smallest valid multiple of β is 3β.
	beta := graph.Weight(4)
	cg := New(2)
	mustEdge(t, cg, 0, 1, 3*beta)
	cg.SetColor(0, 0)
	if c := cg.GreedyColorUniform(1, beta); c != Color(3*beta) {
		t.Errorf("c(1) = %d, want %d", c, 3*beta)
	}
}

func TestValidateDetectsViolation(t *testing.T) {
	cg := New(2)
	mustEdge(t, cg, 0, 1, 5)
	cg.SetColor(0, 0)
	cg.SetColor(1, 3)
	if err := cg.Validate(); err == nil {
		t.Error("want validation error")
	}
}

func TestUncoloredIgnoredByValidate(t *testing.T) {
	cg := New(2)
	mustEdge(t, cg, 0, 1, 5)
	cg.SetColor(0, 0)
	if err := cg.Validate(); err != nil {
		t.Errorf("partial coloring should validate: %v", err)
	}
}

func TestResetBehavesLikeNew(t *testing.T) {
	cg := New(4)
	mustEdge(t, cg, 0, 1, 5)
	mustEdge(t, cg, 1, 2, 3)
	cg.GreedyColor(0)
	cg.GreedyColor(1)
	cg.Reset(3)
	if cg.N() != 3 {
		t.Fatalf("N = %d after Reset(3)", cg.N())
	}
	for v := VertexID(0); v < 3; v++ {
		if cg.Degree(v) != 0 || cg.ColorOf(v) != Uncolored {
			t.Fatalf("vertex %d not pristine after Reset", v)
		}
	}
	// Same sequence as TestGreedyColorSimpleChain must reproduce exactly.
	mustEdge(t, cg, 0, 1, 5)
	mustEdge(t, cg, 1, 2, 3)
	if c := cg.GreedyColor(0); c != 0 {
		t.Errorf("c(0) = %d, want 0", c)
	}
	if c := cg.GreedyColor(1); c != 5 {
		t.Errorf("c(1) = %d, want 5", c)
	}
	if c := cg.GreedyColor(2); c != 0 {
		t.Errorf("c(2) = %d, want 0", c)
	}
}

// TestGreedyColorScratchMatchesReference checks the bitmap search through
// the graph's owned Sweep against the sorted sweep, kept as an oracle.
func TestGreedyColorScratchMatchesReference(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(24)
		cg := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Intn(3) == 0 {
					if err := cg.AddEdge(VertexID(u), VertexID(v), 1+graph.Weight(rng.Intn(9))); err != nil {
						return false
					}
				}
			}
		}
		for _, v := range rng.Perm(n) {
			var forb []Interval
			for _, e := range cg.adj[v] {
				if cu := cg.colors[e.To]; cu != Uncolored {
					forb = append(forb, Forbid(cu, e.W))
				}
			}
			want := sortedSmallest(forb)
			if c := cg.GreedyColor(VertexID(v)); c != want {
				return false
			}
		}
		return cg.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkGreedyColor times the Lemma 1 (GreedyColor) and Lemma 2
// (GreedyColorUniform) searches through a ConflictGraph's owned scratch.
// Run with -benchmem: allocs/op must be zero, also at -benchtime 1x, since
// one coloring pass before the timer grows the scratch.
func BenchmarkGreedyColor(b *testing.B) {
	for _, bc := range []struct {
		name string
		beta graph.Weight // 0: Lemma 1
	}{{"lemma1", 0}, {"lemma2", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			cg := benchGraph(b, bc.beta)
			colorAll(cg, bc.beta)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				colorAll(cg, bc.beta)
			}
		})
	}
}

// benchGraph is a 256-vertex random conflict graph of edge density 1/8,
// with weights in [1, 16], or all beta for a Lemma 2 graph (beta > 0).
func benchGraph(tb testing.TB, beta graph.Weight) *ConflictGraph {
	const n = 256
	cg := New(n)
	rng := rand.New(rand.NewSource(3))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Intn(8) == 0 {
				w := beta
				if w == 0 {
					w = 1 + graph.Weight(rng.Intn(16))
				}
				if err := cg.AddEdge(VertexID(u), VertexID(v), w); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return cg
}

// colorAll uncolors every vertex, then colors them in index order with
// Lemma 1, or with Lemma 2 for beta > 0.
func colorAll(cg *ConflictGraph, beta graph.Weight) {
	for v := range cg.colors {
		cg.colors[v] = Uncolored
	}
	for v := range cg.colors {
		if beta > 0 {
			cg.GreedyColorUniform(VertexID(v), beta)
		} else {
			cg.GreedyColor(VertexID(v))
		}
	}
}

// TestGreedyColorAllocatesNothing pins the zero-allocation contract of
// both searches once a ConflictGraph's scratch has grown.
func TestGreedyColorAllocatesNothing(t *testing.T) {
	for _, beta := range []graph.Weight{0, 8} {
		cg := benchGraph(t, beta)
		colorAll(cg, beta)
		if a := testing.AllocsPerRun(5, func() { colorAll(cg, beta) }); a != 0 {
			t.Errorf("beta=%d: %v allocations per coloring pass, want 0", beta, a)
		}
	}
}
