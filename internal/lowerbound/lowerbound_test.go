package lowerbound

import (
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// TestEstimateAssemblyBound checks a single requester's term, which is
// what the deleted assembly bound computed: the object's wait past Now
// plus its distance to the requester.
func TestEstimateAssemblyBound(t *testing.T) {
	g, err := graph.Line(10)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{
		G:   g,
		Now: 100,
		Txns: []*core.Transaction{
			{ID: 0, Node: 9, Objects: []core.ObjID{0}},
		},
		Avail: map[core.ObjID]Avail{
			0: {Node: 0, Free: 100},
		},
	}
	if lb := Estimate(in); lb != 9 {
		t.Errorf("lb = %d, want 9 (distance)", lb)
	}
	// Object busy until t=105: add the wait.
	in.Avail[0] = Avail{Node: 0, Free: 105}
	if lb := Estimate(in); lb != 14 {
		t.Errorf("lb = %d, want 14 (wait 5 + distance 9)", lb)
	}
	// Availability in the past clamps to now.
	in.Avail[0] = Avail{Node: 0, Free: 50}
	if lb := Estimate(in); lb != 9 {
		t.Errorf("lb = %d, want 9 (past availability)", lb)
	}
}

// TestEstimateTraversalBound checks an object's term with several
// requesters: its wait past Now plus the MST over its availability node
// and its requesters' nodes.
func TestEstimateTraversalBound(t *testing.T) {
	g, err := graph.Line(10)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		nodes []graph.NodeID // requester nodes, one transaction each
		avail Avail
		want  core.Time
	}{
		// A single mobile object must cover MST{0,3,9} = 9 even though
		// each requester is at most 9 away.
		{"requesters on one side", []graph.NodeID{3, 9}, Avail{Node: 0, Free: 100}, 9},
		// Requesters on both sides of the object: MST{5, 0, 9} = 9.
		{"requesters on both sides", []graph.NodeID{0, 9}, Avail{Node: 5, Free: 100}, 9},
	}
	for _, c := range cases {
		in := Input{G: g, Now: 100, Avail: map[core.ObjID]Avail{0: c.avail}}
		for i, v := range c.nodes {
			in.Txns = append(in.Txns, &core.Transaction{ID: core.TxID(i), Node: v, Objects: []core.ObjID{0}})
		}
		if lb := Estimate(in); lb != c.want {
			t.Errorf("%s: lb = %d, want %d", c.name, lb, c.want)
		}
	}
}

func TestEstimateClampsToOne(t *testing.T) {
	g, err := graph.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{
		G:   g,
		Now: 7,
		Txns: []*core.Transaction{
			{ID: 0, Node: 2, Objects: []core.ObjID{0}},
		},
		Avail: map[core.ObjID]Avail{0: {Node: 2, Free: 0}},
	}
	if lb := Estimate(in); lb != 1 {
		t.Errorf("lb = %d, want 1 (co-located and free)", lb)
	}
}

func TestEstimateCliqueSerialization(t *testing.T) {
	// The paper's l_max argument: l transactions all requesting one object
	// in a clique forces at least l-1 unit moves (MST over l+1 distinct
	// nodes at pairwise distance 1 has weight l).
	g, err := graph.Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	txns := make([]*core.Transaction, 5)
	for i := range txns {
		txns[i] = &core.Transaction{ID: core.TxID(i), Node: graph.NodeID(i + 1), Objects: []core.ObjID{0}}
	}
	in := Input{
		G:     g,
		Now:   0,
		Txns:  txns,
		Avail: map[core.ObjID]Avail{0: {Node: 0, Free: 0}},
	}
	if lb := Estimate(in); lb != 5 {
		t.Errorf("lb = %d, want 5 (MST over 6 clique nodes)", lb)
	}
}

func TestSnapshotAvailPhysicalPositions(t *testing.T) {
	g, err := graph.Line(8)
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		G: g,
		Objects: []*core.Object{
			{ID: 0, Origin: 0},
			{ID: 1, Origin: 3, Created: 42},
		},
		Txns: []*core.Transaction{
			{ID: 0, Node: 7, Objects: []core.ObjID{0}},
			{ID: 1, Node: 7, Objects: []core.ObjID{1}},
		},
	}
	s, err := core.NewSim(in, core.SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(0, 7); err != nil {
		t.Fatal(err)
	}
	// Advance to t=2: object 0 is in transit from node 2 to node 3.
	if err := s.AdvanceTo(2); err != nil {
		t.Fatal(err)
	}
	avail := SnapshotAvail(s, in.Txns)
	a0 := avail[0]
	if !(a0.Node == 3 && a0.Free == 3) {
		t.Errorf("avail[0] = %+v, want node 3 free at t=3", a0)
	}
	a1 := avail[1]
	if !(a1.Node == 3 && a1.Free == 42) {
		t.Errorf("avail[1] = %+v, want origin 3 free at creation t=42", a1)
	}
}
