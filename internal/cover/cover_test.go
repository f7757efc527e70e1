package cover

import (
	"math/bits"
	"testing"

	"dtm/internal/graph"
)

func build(t *testing.T, g *graph.Graph, seed int64) *Hierarchy {
	t.Helper()
	h, err := Build(g, seed)
	if err != nil {
		t.Fatalf("Build(%s): %v", g, err)
	}
	if err := h.Verify(); err != nil {
		t.Fatalf("Verify(%s): %v", g, err)
	}
	return h
}

func TestBuildOnTopologies(t *testing.T) {
	mks := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Clique(16) },
		func() (*graph.Graph, error) { return graph.Line(40) },
		func() (*graph.Graph, error) { return graph.Ring(30) },
		func() (*graph.Graph, error) { return graph.Hypercube(5) },
		func() (*graph.Graph, error) { return graph.Grid(6, 6) },
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 5, RayLen: 6}) },
		func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 4, Beta: 4, Gamma: 6}) },
		func() (*graph.Graph, error) { return graph.RandomConnected(40, 40, 4, 5) },
	}
	for _, mk := range mks {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		h := build(t, g, 42)
		d := g.Diameter()
		wantLayers := bits.Len64(uint64(d-1)) + 1
		if d <= 1 {
			wantLayers = 1
		}
		if h.NumLayers() != wantLayers {
			t.Errorf("%s: layers = %d, want %d (D=%d)", g, h.NumLayers(), wantLayers, d)
		}
	}
}

func TestSubLayerCountModest(t *testing.T) {
	g, err := graph.Line(64)
	if err != nil {
		t.Fatal(err)
	}
	h := build(t, g, 1)
	if got, cap := h.MaxSubLayers(), maxSubLayers(g.N()); got > cap {
		t.Errorf("sub-layers %d exceed cap %d", got, cap)
	}
}

func TestHomeForRadius(t *testing.T) {
	g, err := graph.Line(32)
	if err != nil {
		t.Fatal(err)
	}
	h := build(t, g, 7)
	for _, y := range []graph.Weight{0, 1, 3, 10, 31} {
		for u := 0; u < g.N(); u += 5 {
			l, c := h.HomeForRadius(graph.NodeID(u), y)
			if c == nil {
				t.Fatalf("no home for node %d radius %d", u, y)
			}
			// The chosen layer's guarantee must cover radius y (unless we
			// are pinned at the top layer).
			if cov := (graph.Weight(1) << uint(l)) - 1; cov < y && l != h.NumLayers()-1 {
				t.Errorf("layer %d covers only %d < y=%d", l, cov, y)
			}
			// Every node within y of u must be in the cluster.
			inCluster := map[graph.NodeID]bool{}
			for _, v := range c.Nodes {
				inCluster[v] = true
			}
			if cov := (graph.Weight(1) << uint(l)) - 1; cov >= y {
				for _, v := range g.Ball(graph.NodeID(u), y) {
					if !inCluster[v] {
						t.Errorf("node %d's y=%d ball leaks node %d from its home cluster", u, y, v)
					}
				}
			}
		}
	}
}

func TestLeadersAreClusterMembers(t *testing.T) {
	g, err := graph.Grid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	h := build(t, g, 3)
	for _, subs := range h.Layers {
		for _, sub := range subs {
			for _, cl := range sub.Clusters {
				found := false
				for _, v := range cl.Nodes {
					if v == cl.Leader {
						found = true
					}
					if v < cl.Leader {
						t.Errorf("leader %d is not the smallest member (%d)", cl.Leader, v)
					}
				}
				if !found {
					t.Errorf("leader %d not in cluster", cl.Leader)
				}
			}
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	g, err := graph.Ring(24)
	if err != nil {
		t.Fatal(err)
	}
	a := build(t, g, 9)
	b := build(t, g, 9)
	if a.NumLayers() != b.NumLayers() || a.MaxSubLayers() != b.MaxSubLayers() {
		t.Fatal("same-seed builds differ")
	}
	for l := range a.Layers {
		for u := 0; u < g.N(); u++ {
			ca, cb := a.Home(l, graph.NodeID(u)), b.Home(l, graph.NodeID(u))
			if ca.Leader != cb.Leader || ca.SubLayer != cb.SubLayer {
				t.Fatalf("home of node %d layer %d differs", u, l)
			}
		}
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	g := graph.MustNew(4, []graph.Link{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	if _, err := Build(g, 0); err == nil {
		t.Error("disconnected graph: want error")
	}
	if _, err := Build(nil, 0); err == nil {
		t.Error("nil graph: want error")
	}
}

func TestManySeeds(t *testing.T) {
	g, err := graph.Grid(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 10; seed++ {
		build(t, g, seed)
	}
}
