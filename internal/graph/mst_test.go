package graph

import (
	"slices"
	"testing"
)

// mstFuzzGraph returns one of three tie-heavy graphs: a random connected
// graph with weights in [1, 3], a clique and a grid.
func mstFuzzGraph(t *testing.T, topo, seed uint8) *Graph {
	t.Helper()
	var g *Graph
	var err error
	switch topo % 3 {
	case 0:
		g, err = RandomConnected(20, 6, 3, int64(seed))
	case 1:
		g, err = Clique(12)
	default:
		g, err = Grid(4, 4)
	}
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzMST grows and shrinks a tree in the input's order: a pick with the
// high bit set deletes its node, any other inserts it. After every
// operation it checks the tree row for row against Build over the same
// nodes, checks the weight-only query made before each insertion, and
// checks Build's tree against the cycle property, a certificate that uses
// none of the three algorithms.
func FuzzMST(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{3, 9, 1, 14, 7, 3, 19, 0, 11, 2, 16})
	f.Add(uint8(0), uint8(5), []byte{12, 4, 4, 18, 7, 1, 9, 13, 6})
	f.Add(uint8(1), uint8(0), []byte{5, 2, 11, 8, 0, 1, 6, 10})
	f.Add(uint8(2), uint8(0), []byte{15, 0, 5, 10, 12, 3, 6, 9, 1})
	f.Add(uint8(2), uint8(0), []byte{7})
	// Grid(4,4): the star at 5 loses its centre, then its root, then a
	// leaf; an absent node; the last point, then a fresh start.
	f.Add(uint8(2), uint8(0), []byte{5, 1, 4, 6, 9, 128 | 5, 128 | 1, 128 | 9, 128 | 3, 128 | 4, 128 | 6, 2})
	// Random graph: deletions of inner points, re-insertions.
	f.Add(uint8(0), uint8(3), []byte{3, 9, 1, 14, 7, 19, 0, 11, 128 | 7, 128 | 1, 7, 128 | 0, 128 | 14, 1, 128 | 11})
	// Clique(12): every rejoin ties on weight.
	f.Add(uint8(1), uint8(0), []byte{5, 2, 11, 8, 0, 128 | 2, 128 | 0, 3, 128 | 11, 128 | 5})
	f.Fuzz(func(t *testing.T, topo, seed uint8, picks []byte) {
		g := mstFuzzGraph(t, topo, seed)
		if len(picks) > 24 {
			picks = picks[:24]
		}
		b := NewMSTBuilder(g)
		var grown, ref MST
		var nodes []NodeID
		for _, c := range picks {
			p := NodeID(int(c&0x7f) % g.N())
			if c&0x80 != 0 {
				nodes = slices.DeleteFunc(nodes, func(v NodeID) bool { return v == p })
				b.Delete(&grown, p)
				b.Build(&ref, nodes)
			} else {
				nodes = append(nodes, p)
				b.Build(&ref, nodes)
				if w := b.WeightWith(&grown, p); w != ref.weight {
					t.Fatalf("WeightWith(%v, %d) = %d, Build weight %d", nodes[:len(nodes)-1], p, w, ref.weight)
				}
				b.Insert(&grown, p)
			}
			checkMSTCertificate(t, g, &ref)
			checkMSTShape(t, &grown)
			checkSameRows(t, &grown, &ref)
		}
	})
}

// checkSameRows fails unless grown has ref's rows and weight.
func checkSameRows(t *testing.T, grown, ref *MST) {
	t.Helper()
	if grown.weight != ref.weight || !slices.Equal(grown.pts, ref.pts) {
		t.Fatalf("grown tree %v (weight %d), built %v (weight %d)", grown.pts, grown.weight, ref.pts, ref.weight)
	}
}

// checkMSTShape checks t's rows: points strictly ascending by node, the
// root at point 0 and every other point's parent chain reaching it. It
// returns each point's depth.
func checkMSTShape(t *testing.T, tr *MST) []int {
	t.Helper()
	n := len(tr.pts)
	if n > 0 && (tr.pts[0].up != -1 || tr.pts[0].w != 0) {
		t.Fatalf("root row %+v", tr.pts[0])
	}
	depth := make([]int, n)
	for i := 1; i < n; i++ {
		if tr.pts[i-1].node >= tr.pts[i].node {
			t.Fatalf("points not strictly ascending: %v", tr.pts)
		}
		for u := int32(i); u != 0; u = tr.pts[u].up {
			if up := tr.pts[u].up; up < 0 || int(up) >= n || depth[i] == n {
				t.Fatalf("point %d's parent chain does not reach the root: %v", i, tr.pts)
			}
			depth[i]++
		}
	}
	return depth
}

// checkMSTCertificate checks that t is a spanning tree of its nodes'
// metric closure with true distances and weight, and that it satisfies
// the cycle property under the strict order: every tree edge on the tree
// path between the endpoints of a non-tree pair comes before that pair.
// Under a strict order that makes t the unique MST.
func checkMSTCertificate(t *testing.T, g *Graph, tr *MST) {
	t.Helper()
	depth := checkMSTShape(t, tr)
	var sum Weight
	for i, pt := range tr.pts {
		if i > 0 {
			if d := g.Dist(tr.Node(i), tr.Node(int(pt.up))); pt.w != d {
				t.Fatalf("edge %d-%d has weight %d, distance %d", pt.node, tr.pts[pt.up].node, pt.w, d)
			}
		}
		sum += pt.w
	}
	if sum != tr.weight {
		t.Fatalf("weight %d, edges sum to %d", tr.weight, sum)
	}
	treeEdge := func(u int32) mstEdge {
		return newMSTEdge(tr.pts[u].w, u, tr.pts[u].up, tr.Node(int(u)), tr.Node(tr.Parent(int(u))))
	}
	for a := range tr.pts {
		for b := a + 1; b < len(tr.pts); b++ {
			x, y := int32(a), int32(b)
			if tr.pts[x].up == y || tr.pts[y].up == x {
				continue
			}
			e := newMSTEdge(g.Dist(tr.Node(a), tr.Node(b)), x, y, tr.Node(a), tr.Node(b))
			for x != y {
				if depth[x] < depth[y] {
					x, y = y, x
				}
				if te := treeEdge(x); !te.less(e) {
					t.Fatalf("tree edge %+v on the path of non-tree edge %+v does not come before it", te, e)
				}
				x = tr.pts[x].up
			}
		}
	}
}

func TestMSTWeightWithAllocatesNothing(t *testing.T) {
	g := mustLine(t, 64)
	b := NewMSTBuilder(g)
	var tr MST
	b.Build(&tr, []NodeID{40, 3, 17, 60, 9, 33, 25, 51})
	b.WeightWith(&tr, 12) // grow the scratch
	if a := testing.AllocsPerRun(100, func() { b.WeightWith(&tr, 12) }); a != 0 {
		t.Errorf("WeightWith allocates %v times per call, want 0", a)
	}
	if got, want := b.WeightWith(&tr, 12), g.MetricMST([]NodeID{40, 3, 17, 60, 9, 33, 25, 51, 12}); got != want {
		t.Errorf("WeightWith = %d, MetricMST = %d", got, want)
	}
}

func TestMSTCloneLeavesOriginal(t *testing.T) {
	g := mustLine(t, 16)
	b := NewMSTBuilder(g)
	var tr MST
	b.Build(&tr, []NodeID{2, 9, 5})
	c := tr.Clone(2)
	b.Insert(&c, 0)
	b.Insert(&c, 15)
	if tr.Len() != 3 || tr.weight != 7 || tr.Node(0) != 2 {
		t.Errorf("original changed: %v weight %d", tr.pts, tr.weight)
	}
	if c.Len() != 5 || c.weight != 15 || c.Node(0) != 0 || c.Parent(0) != -1 {
		t.Errorf("clone after two inserts: %v weight %d", c.pts, c.weight)
	}
}

// TestMSTDelete deletes one point from a Build tree on Grid(4,4), where
// distances tie, and checks the result row for row against Build over the
// remaining points. The star {1, 4, 5, 6, 9} has centre 5 at distance 1
// from the others, which are pairwise at distance 2.
func TestMSTDelete(t *testing.T) {
	g, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	star := []NodeID{1, 4, 5, 6, 9}
	cases := []struct {
		name  string
		nodes []NodeID
		p     NodeID
		check func(t *testing.T, before, after *MST)
	}{
		{"leaf", star, 9, nil},
		{"root", star, 1, func(t *testing.T, before, after *MST) {
			if before.Node(0) != 1 || after.Node(0) != 4 || after.Parent(0) != -1 {
				t.Errorf("root %d before, %d after (parent %d), want 1 then 4", before.Node(0), after.Node(0), after.Parent(0))
			}
		}},
		{"centre", star, 5, func(t *testing.T, before, after *MST) {
			if d := degree(before, 2); d != 4 {
				t.Fatalf("node 5 has degree %d, want 4", d)
			}
			// The rejoined tree is the star at 1: all three of its edges
			// tie at weight 2 and none was in the old tree.
			for i := 1; i < after.Len(); i++ {
				if after.Node(after.Parent(i)) != 1 || after.pts[i].w != 2 {
					t.Errorf("after: %v, want the star at 1", after.pts)
				}
			}
		}},
		{"only point", []NodeID{7}, 7, func(t *testing.T, before, after *MST) {
			if after.Len() != 0 {
				t.Errorf("after: %v, want empty", after.pts)
			}
		}},
		{"absent", star, 3, func(t *testing.T, before, after *MST) {
			if !slices.Equal(before.pts, after.pts) {
				t.Errorf("after: %v, want %v", after.pts, before.pts)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewMSTBuilder(g)
			var before, after, ref MST
			b.Build(&before, c.nodes)
			after = before.Clone(0)
			b.Delete(&after, c.p)
			b.Build(&ref, slices.DeleteFunc(slices.Clone(c.nodes), func(v NodeID) bool { return v == c.p }))
			checkMSTCertificate(t, g, &ref)
			checkSameRows(t, &after, &ref)
			if c.check != nil {
				c.check(t, &before, &after)
			}
		})
	}
}

// degree returns the number of tree edges at point i.
func degree(tr *MST, i int) int {
	d := 0
	if tr.Parent(i) >= 0 {
		d++
	}
	for j := range tr.pts {
		if tr.Parent(j) == i {
			d++
		}
	}
	return d
}
