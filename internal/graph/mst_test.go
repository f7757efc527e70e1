package graph

import "testing"

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

// FuzzMST grows a tree by Insert in the input's order and, after every
// insertion, checks it against Build over the same nodes, checks the
// weight-only query made just before it, and checks Build's tree against
// the cycle property, a certificate that uses neither algorithm.
func FuzzMST(f *testing.F) {
	f.Add(uint8(0), uint8(1), []byte{3, 9, 1, 14, 7, 3, 19, 0, 11, 2, 16})
	f.Add(uint8(0), uint8(5), []byte{12, 4, 4, 18, 7, 1, 9, 13, 6})
	f.Add(uint8(1), uint8(0), []byte{5, 2, 11, 8, 0, 1, 6, 10})
	f.Add(uint8(2), uint8(0), []byte{15, 0, 5, 10, 12, 3, 6, 9, 1})
	f.Add(uint8(2), uint8(0), []byte{7})
	f.Fuzz(func(t *testing.T, topo, seed uint8, picks []byte) {
		g := mstFuzzGraph(t, topo, seed)
		if len(picks) > 24 {
			picks = picks[:24]
		}
		b := NewMSTBuilder(g)
		var grown MST
		var nodes []NodeID
		for _, c := range picks {
			p := NodeID(int(c) % g.N())
			nodes = append(nodes, p)
			var ref MST
			b.Build(&ref, nodes)
			if w := b.WeightWith(&grown, p); w != ref.weight {
				t.Fatalf("WeightWith(%v, %d) = %d, Build weight %d", nodes[:len(nodes)-1], p, w, ref.weight)
			}
			b.Insert(&grown, p)
			checkMSTCertificate(t, g, &ref)
			checkMSTShape(t, &grown)
			if grown.weight != ref.weight || len(grown.pts) != len(ref.pts) {
				t.Fatalf("nodes %v: grown tree %v (weight %d), built %v (weight %d)",
					nodes, grown.pts, grown.weight, ref.pts, ref.weight)
			}
			for i := range ref.pts {
				if grown.pts[i] != ref.pts[i] {
					t.Fatalf("nodes %v: grown tree %v, built %v", nodes, grown.pts, ref.pts)
				}
			}
		}
	})
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
