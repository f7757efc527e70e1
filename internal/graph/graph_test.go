package graph

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func mustLine(t *testing.T, n int) *Graph {
	t.Helper()
	g, err := Line(n)
	if err != nil {
		t.Fatalf("Line(%d): %v", n, err)
	}
	return g
}

func TestNewRejectsNonPositive(t *testing.T) {
	// Above math.MaxInt32 a node ID no longer fits a tree row; New must
	// refuse before allocating anything.
	for _, n := range []int{0, -1, -100, math.MaxInt32 + 1} {
		if _, err := New(n, nil); err == nil {
			t.Errorf("New(%d): want error, got nil", n)
		}
	}
}

// A bad link refuses the whole list, also after a good one, with an error
// that names it.
func TestNewRejectsBadLinks(t *testing.T) {
	cases := []struct {
		bad  Link
		want string
	}{
		{Link{0, 0, 1}, "graph: self-loop at node 0"},
		{Link{0, 3, 1}, "graph: edge {0,3} out of range [0,3)"},
		{Link{-1, 1, 1}, "graph: edge {-1,1} out of range [0,3)"},
		{Link{0, 1, 0}, "graph: edge {0,1} has non-positive weight 0"},
		{Link{0, 1, -5}, "graph: edge {0,1} has non-positive weight -5"},
		// Weights a distance sum could wrap.
		{Link{0, 1, Infinite}, fmt.Sprintf("graph: edge {0,1} has weight %d, not below %d", Infinite, Infinite)},
		{Link{0, 1, math.MaxInt64}, fmt.Sprintf("graph: edge {0,1} has weight %d, not below %d", math.MaxInt64, Infinite)},
	}
	for _, c := range cases {
		g, err := New(3, []Link{{1, 2, 1}, c.bad})
		if err == nil || err.Error() != c.want {
			t.Errorf("New(3, [{1,2,1} %v]) = %v, %v; want error %q", c.bad, g, err, c.want)
		}
	}
}

// Parallel links merge into one edge of the smallest weight, at the first
// link's place in both adjacency lists.
func TestParallelEdgesKeepMinWeight(t *testing.T) {
	g := MustNew(3, []Link{{0, 1, 5}, {2, 0, 4}, {1, 0, 3}, {0, 1, 7}})
	if g.M() != 2 {
		t.Fatalf("M() = %d, want 2", g.M())
	}
	if w, ok := g.EdgeWeight(0, 1); !ok || w != 3 {
		t.Fatalf("EdgeWeight(0,1) = %d,%v, want 3,true", w, ok)
	}
	if d := g.Dist(0, 1); d != 3 {
		t.Fatalf("Dist(0,1) = %d, want 3", d)
	}
	if got := fmt.Sprint(g.Neighbors(0), g.Neighbors(1)); got != "[{1 3} {2 4}] [{0 3}]" {
		t.Fatalf("adjacency of 0 and 1 = %s, want [{1 3} {2 4}] [{0 3}]", got)
	}
}

func TestLineDistances(t *testing.T) {
	g := mustLine(t, 10)
	for u := 0; u < 10; u++ {
		for v := 0; v < 10; v++ {
			want := Weight(abs(u - v))
			if d := g.Dist(NodeID(u), NodeID(v)); d != want {
				t.Errorf("Dist(%d,%d) = %d, want %d", u, v, d, want)
			}
		}
	}
	if d := g.Diameter(); d != 9 {
		t.Errorf("Diameter = %d, want 9", d)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestWeightedShortestPathPrefersLightRoute(t *testing.T) {
	// 0 -10- 1, 0 -1- 2 -1- 1: the two-hop route is shorter.
	g := MustNew(3, []Link{{0, 1, 10}, {0, 2, 1}, {2, 1, 1}})
	if d := g.Dist(0, 1); d != 2 {
		t.Fatalf("Dist(0,1) = %d, want 2", d)
	}
	if hop := g.NextHop(0, 1); hop != 2 {
		t.Fatalf("NextHop(0,1) = %d, want 2", hop)
	}
	want := []NodeID{0, 2, 1}
	got := g.Path(0, 1)
	if len(got) != len(want) {
		t.Fatalf("Path(0,1) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Path(0,1) = %v, want %v", got, want)
		}
	}
}

func TestDisconnected(t *testing.T) {
	g := MustNew(4, []Link{{0, 1, 1}, {2, 3, 1}})
	if g.Connected() {
		t.Error("Connected() = true, want false")
	}
	if d := g.Dist(0, 2); d != Infinite {
		t.Errorf("Dist(0,2) = %d, want Infinite", d)
	}
	if d := g.Diameter(); d != Infinite {
		t.Errorf("Diameter = %d, want Infinite", d)
	}
	if hop := g.NextHop(0, 3); hop != -1 {
		t.Errorf("NextHop(0,3) = %d, want -1", hop)
	}
	if p := g.Path(0, 3); p != nil {
		t.Errorf("Path(0,3) = %v, want nil", p)
	}
}

func TestPathEndpointsAndLength(t *testing.T) {
	g, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u += 3 {
		for v := 0; v < g.N(); v += 5 {
			p := g.Path(NodeID(u), NodeID(v))
			if p[0] != NodeID(u) || p[len(p)-1] != NodeID(v) {
				t.Fatalf("Path(%d,%d) endpoints wrong: %v", u, v, p)
			}
			var total Weight
			for i := 0; i+1 < len(p); i++ {
				w, ok := g.EdgeWeight(p[i], p[i+1])
				if !ok {
					t.Fatalf("Path(%d,%d) uses non-edge {%d,%d}", u, v, p[i], p[i+1])
				}
				total += w
			}
			if total != g.Dist(NodeID(u), NodeID(v)) {
				t.Fatalf("Path(%d,%d) length %d != Dist %d", u, v, total, g.Dist(NodeID(u), NodeID(v)))
			}
		}
	}
}

func TestNextHopConsistentWithDist(t *testing.T) {
	g, err := RandomConnected(40, 60, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u == v {
				if hop := g.NextHop(NodeID(u), NodeID(v)); hop != NodeID(u) {
					t.Fatalf("NextHop(%d,%d) = %d, want %d", u, v, hop, u)
				}
				continue
			}
			hop := g.NextHop(NodeID(u), NodeID(v))
			w, ok := g.EdgeWeight(NodeID(u), hop)
			if !ok {
				t.Fatalf("NextHop(%d,%d) = %d is not adjacent to %d", u, v, hop, u)
			}
			if g.Dist(NodeID(u), NodeID(v)) != w+g.Dist(hop, NodeID(v)) {
				t.Fatalf("NextHop(%d,%d) = %d not on a shortest path", u, v, hop)
			}
		}
	}
}

// The Sim takes a hop's weight from the source's tree: the first node
// after u on a shortest path has u as its tree parent, so its distance is
// the weight of the edge between them, also after parallel edges were
// merged.
func TestNextHopDistIsEdgeWeight(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		r, err := RandomConnected(30, 45, 6, seed)
		if err != nil {
			t.Fatal(err)
		}
		var links []Link
		for u := NodeID(0); int(u) < r.N(); u++ {
			for i, e := range r.Neighbors(u) {
				if e.To < u {
					continue
				}
				// List every edge again heavier (kept at its weight) and
				// every other one lighter (lowered to 1).
				links = append(links, Link{u, e.To, e.W}, Link{u, e.To, e.W + 3})
				if i%2 == 0 {
					links = append(links, Link{e.To, u, 1})
				}
			}
		}
		g := MustNew(r.N(), links)
		for u := NodeID(0); int(u) < g.N(); u++ {
			for v := NodeID(0); int(v) < g.N(); v++ {
				if u == v {
					continue
				}
				hop := g.NextHop(u, v)
				w, ok := g.EdgeWeight(u, hop)
				if !ok || g.Dist(u, hop) != w {
					t.Fatalf("seed %d: Dist(%d, NextHop(%d, %d) = %d) = %d, edge weight %d (exists %v)",
						seed, u, u, v, hop, g.Dist(u, hop), w, ok)
				}
			}
		}
	}
}

func TestCliqueProperties(t *testing.T) {
	g, err := Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 8*7/2 {
		t.Errorf("clique M = %d, want %d", g.M(), 8*7/2)
	}
	if d := g.Diameter(); d != 1 {
		t.Errorf("clique diameter = %d, want 1", d)
	}
}

func TestWeightedClique(t *testing.T) {
	g, err := WeightedClique(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("weighted clique diameter = %d, want 4", d)
	}
}

func TestHypercubeDistancesAreHamming(t *testing.T) {
	dim := 5
	g, err := Hypercube(dim)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 1<<dim {
		t.Fatalf("N = %d, want %d", g.N(), 1<<dim)
	}
	popcount := func(x int) int {
		c := 0
		for x != 0 {
			c += x & 1
			x >>= 1
		}
		return c
	}
	for u := 0; u < g.N(); u += 3 {
		for v := 0; v < g.N(); v += 7 {
			want := Weight(popcount(u ^ v))
			if d := g.Dist(NodeID(u), NodeID(v)); d != want {
				t.Errorf("hypercube Dist(%d,%d) = %d, want %d", u, v, d, want)
			}
		}
	}
	if d := g.Diameter(); d != Weight(dim) {
		t.Errorf("hypercube diameter = %d, want %d", d, dim)
	}
}

func TestButterflyShape(t *testing.T) {
	dim := 3
	g, err := Butterfly(dim)
	if err != nil {
		t.Fatal(err)
	}
	rows := 1 << dim
	if g.N() != (dim+1)*rows {
		t.Fatalf("N = %d, want %d", g.N(), (dim+1)*rows)
	}
	if g.M() != 2*dim*rows {
		t.Fatalf("M = %d, want %d", g.M(), 2*dim*rows)
	}
	if !g.Connected() {
		t.Fatal("butterfly disconnected")
	}
	// Diameter of the non-wrapped butterfly is 2*dim.
	if d := g.Diameter(); d != Weight(2*dim) {
		t.Errorf("butterfly diameter = %d, want %d", d, 2*dim)
	}
}

func TestGridShapes(t *testing.T) {
	g, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 || g.M() != 2*4*3 {
		t.Fatalf("4x4 grid: n=%d m=%d", g.N(), g.M())
	}
	if d := g.Diameter(); d != 6 {
		t.Errorf("4x4 grid diameter = %d, want 6", d)
	}
	// Grid of d twos == hypercube of dimension d.
	g2, err := Grid(2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != h.N() || g2.M() != h.M() || g2.Diameter() != h.Diameter() {
		t.Errorf("grid(2^4) vs hypercube(4): n %d/%d m %d/%d dia %d/%d",
			g2.N(), h.N(), g2.M(), h.M(), g2.Diameter(), h.Diameter())
	}
	if _, err := Grid(); err == nil {
		t.Error("Grid(): want error")
	}
	if _, err := Grid(3, 0); err == nil {
		t.Error("Grid(3,0): want error")
	}
}

func TestClusterTopology(t *testing.T) {
	spec := ClusterSpec{Alpha: 3, Beta: 4, Gamma: 5}
	g, err := Cluster(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("N = %d, want 12", g.N())
	}
	// Within a clique: distance 1.
	if d := g.Dist(1, 2); d != 1 {
		t.Errorf("intra-clique Dist = %d, want 1", d)
	}
	// Across cliques: to bridge (<=1) + gamma + from bridge (<=1). Clique
	// c's bridge is node c*beta.
	if d := g.Dist(0, 4); d != 5 {
		t.Errorf("bridge-to-bridge Dist = %d, want 5", d)
	}
	if d := g.Dist(1, 5); d != 1+5+1 {
		t.Errorf("cross-clique Dist = %d, want 7", d)
	}
	if _, err := Cluster(ClusterSpec{Alpha: 2, Beta: 4, Gamma: 2}); err == nil {
		t.Error("gamma < beta: want error")
	}
	// A node count past math.MaxInt32 is refused before any link is
	// listed, also when alpha*beta wraps to a small int.
	if _, err := Cluster(ClusterSpec{Alpha: 1<<62 + 1, Beta: 4, Gamma: 4}); err == nil {
		t.Error("alpha*beta past MaxInt32: want error")
	}
}

func TestStarTopology(t *testing.T) {
	spec := StarSpec{Rays: 4, RayLen: 3}
	g, err := Star(spec)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 13 {
		t.Fatalf("N = %d, want 13", g.N())
	}
	// Tip of ray 0 is node 3, at distance 3 from the center.
	if d := g.Dist(0, 3); d != 3 {
		t.Errorf("center-to-tip Dist = %d, want 3", d)
	}
	// Tip to tip passes through center: 3 + 3.
	if d := g.Dist(3, 1+1*3+2); d != 6 {
		t.Errorf("tip-to-tip Dist = %d, want 6", d)
	}
	if d := g.Diameter(); d != 6 {
		t.Errorf("star diameter = %d, want 6", d)
	}
	if _, err := Star(StarSpec{Rays: 1<<62 + 1, RayLen: 4}); err == nil {
		t.Error("1+rays*rayLen past MaxInt32: want error")
	}
}

func TestTree(t *testing.T) {
	g, err := Tree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 15 {
		t.Fatalf("N = %d, want 15", g.N())
	}
	if d := g.Diameter(); d != 6 {
		t.Errorf("tree diameter = %d, want 6", d)
	}
}

func TestRandomConnectedIsConnectedAndDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g1, err := RandomConnected(30, 20, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !g1.Connected() {
			t.Fatalf("seed %d: disconnected", seed)
		}
		g2, err := RandomConnected(30, 20, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		if g1.M() != g2.M() || g1.Diameter() != g2.Diameter() {
			t.Fatalf("seed %d: not deterministic", seed)
		}
	}
}

func TestMetricMST(t *testing.T) {
	g := mustLine(t, 10)
	// Nodes {0, 9}: MST weight is the distance 9.
	if w := g.MetricMST([]NodeID{0, 9}); w != 9 {
		t.Errorf("MetricMST({0,9}) = %d, want 9", w)
	}
	// Nodes {0, 5, 9} on a line: MST = 5 + 4.
	if w := g.MetricMST([]NodeID{0, 5, 9}); w != 9 {
		t.Errorf("MetricMST({0,5,9}) = %d, want 9", w)
	}
	if w := g.MetricMST([]NodeID{3}); w != 0 {
		t.Errorf("MetricMST(single) = %d, want 0", w)
	}
	if w := g.MetricMST(nil); w != 0 {
		t.Errorf("MetricMST(nil) = %d, want 0", w)
	}
	// Duplicates ignored.
	if w := g.MetricMST([]NodeID{2, 2, 2, 7}); w != 5 {
		t.Errorf("MetricMST(dups) = %d, want 5", w)
	}
	// Not mutually reachable: two components {0, 1} and {2, 3}.
	h := MustNew(4, []Link{{0, 1, 1}, {2, 3, 1}})
	if w := h.MetricMST([]NodeID{0, 1, 2, 3}); w != Infinite {
		t.Errorf("MetricMST(unreachable) = %d, want Infinite", w)
	}
}

func TestBall(t *testing.T) {
	g := mustLine(t, 10)
	ball := g.Ball(5, 2)
	want := []NodeID{3, 4, 5, 6, 7}
	if len(ball) != len(want) {
		t.Fatalf("Ball(5,2) = %v, want %v", ball, want)
	}
	for i := range want {
		if ball[i] != want[i] {
			t.Fatalf("Ball(5,2) = %v, want %v", ball, want)
		}
	}
	if b := g.Ball(0, 0); len(b) != 1 || b[0] != 0 {
		t.Errorf("Ball(0,0) = %v, want [0]", b)
	}
}

func TestMinMaxEdgeWeight(t *testing.T) {
	g := MustNew(3, nil)
	if g.MaxEdgeWeight() != 0 || g.MinEdgeWeight() != 0 {
		t.Error("edgeless graph should report 0 min/max weight")
	}
	g = MustNew(3, []Link{{0, 1, 3}, {1, 2, 8}})
	if g.MinEdgeWeight() != 3 || g.MaxEdgeWeight() != 8 {
		t.Errorf("min/max = %d/%d, want 3/8", g.MinEdgeWeight(), g.MaxEdgeWeight())
	}
}

// Property: for random connected graphs, the triangle inequality holds for
// shortest-path distances, and Dist is symmetric.
func TestDistMetricProperties(t *testing.T) {
	check := func(seed int64) bool {
		g, err := RandomConnected(25, 15, 6, seed)
		if err != nil {
			return false
		}
		n := g.N()
		for u := 0; u < n; u += 2 {
			for v := 0; v < n; v += 3 {
				if g.Dist(NodeID(u), NodeID(v)) != g.Dist(NodeID(v), NodeID(u)) {
					return false
				}
				for w := 0; w < n; w += 5 {
					if g.Dist(NodeID(u), NodeID(v)) > g.Dist(NodeID(u), NodeID(w))+g.Dist(NodeID(w), NodeID(v)) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: MetricMST of a subset lower-bounds any visiting walk we can
// construct (here: the walk visiting the subset in node-ID order).
func TestMetricMSTLowerBoundsOrderedWalk(t *testing.T) {
	check := func(seed int64) bool {
		g, err := RandomConnected(20, 10, 5, seed)
		if err != nil {
			return false
		}
		nodes := []NodeID{1, 4, 7, 11, 15, 19}
		var walk Weight
		for i := 0; i+1 < len(nodes); i++ {
			walk += g.Dist(nodes[i], nodes[i+1])
		}
		return g.MetricMST(nodes) <= walk
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDijkstraHypercube10(b *testing.B) {
	g, err := Hypercube(10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Bypass the cache by rebuilding the tree.
		_ = g.dijkstra(NodeID(i % g.N()))
	}
}

// BenchmarkConstruct builds a long path and a dense clique. Construction
// is linear in the edge list, so each takes tens of milliseconds; a build
// that touched every node per edge would take minutes on the path alone.
func BenchmarkConstruct(b *testing.B) {
	for _, c := range []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"line131072", func() (*Graph, error) { return Line(1 << 17) }},
		{"clique1024", func() (*Graph, error) { return Clique(1024) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestConcurrentQueries hammers the lazily built shortest-path-tree cache
// from many goroutines (exercising the atomic-load fast path) and checks the
// answers match a sequential baseline. Run with -race.
func TestConcurrentQueries(t *testing.T) {
	g, err := Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	base := make([][]Weight, n)
	for s := 0; s < n; s++ {
		base[s] = make([]Weight, n)
		for d := 0; d < n; d++ {
			base[s][d] = g.Dist(NodeID(s), NodeID(d))
		}
	}
	fresh, err := Grid(5, 5) // cold cache, populated concurrently
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n*n; i++ {
				s := NodeID((i + w) % n)
				d := NodeID((i * 7) % n)
				if got := fresh.Dist(s, d); got != base[s][d] {
					errs <- fmt.Sprintf("Dist(%d,%d) = %d, want %d", s, d, got, base[s][d])
					return
				}
				if p := fresh.Path(s, d); Weight(len(p)) != base[s][d]+1 {
					errs <- fmt.Sprintf("Path(%d,%d) has %d nodes, want %d", s, d, len(p), base[s][d]+1)
					return
				}
				if s != d {
					if h := fresh.NextHop(s, d); fresh.Dist(h, d) != base[s][d]-1 {
						errs <- fmt.Sprintf("NextHop(%d,%d) = %d does not advance", s, d, h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestWarmTrees runs the warm-up at every kind of worker bound (GOMAXPROCS,
// one, two, more workers than nodes): afterwards every tree is built, and
// every distance and next hop matches a twin whose trees the queries
// built one at a time. A second call on the warm graph keeps every tree.
func TestWarmTrees(t *testing.T) {
	const n = 48
	mk := func() *Graph {
		g, err := RandomConnected(n, 80, 5, 11)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	lazy := mk()
	for _, workers := range []int{-1, 0, 1, 2, n + 5} {
		g := mk()
		g.WarmTrees(workers)
		built := make([]*spTree, n)
		for v := range g.trees {
			if built[v] = g.trees[v].Load(); built[v] == nil {
				t.Fatalf("workers=%d: tree %d not built", workers, v)
			}
		}
		for u := NodeID(0); u < n; u++ {
			for v := NodeID(0); v < n; v++ {
				if got, want := g.Dist(u, v), lazy.Dist(u, v); got != want {
					t.Fatalf("workers=%d: Dist(%d, %d) = %d, lazily %d", workers, u, v, got, want)
				}
				if got, want := g.NextHop(u, v), lazy.NextHop(u, v); got != want {
					t.Fatalf("workers=%d: NextHop(%d, %d) = %d, lazily %d", workers, u, v, got, want)
				}
			}
		}
		g.WarmTrees(workers)
		for v := range g.trees {
			if g.trees[v].Load() != built[v] {
				t.Fatalf("workers=%d: second warm-up replaced tree %d", workers, v)
			}
		}
	}
}
