package batch

import (
	"testing"
	"testing/quick"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/workload"
)

// replayBatch turns a batch assignment into decisions at p.Now and checks
// feasibility against the core engine (objects start at their availability
// positions: we encode Avail as object origins/creation times).
func replayBatch(t *testing.T, g *graph.Graph, txns []*core.Transaction, avail map[core.ObjID]Avail, s Scheduler) core.Time {
	t.Helper()
	p := &Problem{G: g, Now: 0, Txns: txns, Avail: avail}
	asgn, err := s.Schedule(p)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	if len(asgn) != len(txns) {
		t.Fatalf("%s: assigned %d of %d transactions", s.Name(), len(asgn), len(txns))
	}
	// Build a core instance whose objects start exactly at Avail.
	var maxObj core.ObjID
	for _, tx := range txns {
		for _, o := range tx.Objects {
			if o > maxObj {
				maxObj = o
			}
		}
	}
	in := &core.Instance{G: g}
	for o := core.ObjID(0); o <= maxObj; o++ {
		a, ok := avail[o]
		if !ok {
			a = Avail{Node: 0, Free: 0}
		}
		in.Objects = append(in.Objects, &core.Object{ID: o, Origin: a.Node, Created: a.Free})
	}
	ids := make(map[core.TxID]core.TxID, len(txns)) // old -> dense
	for i, tx := range txns {
		ids[tx.ID] = core.TxID(i)
		in.Txns = append(in.Txns, &core.Transaction{
			ID:      core.TxID(i),
			Node:    tx.Node,
			Arrival: tx.Arrival,
			Objects: tx.Objects,
		})
	}
	var decisions []core.Decision
	for _, tx := range txns {
		decisions = append(decisions, core.Decision{Tx: ids[tx.ID], Exec: asgn[tx.ID], At: 0})
	}
	if _, err := core.Replay(in, decisions, core.SimOptions{}, nil); err != nil {
		t.Fatalf("%s: infeasible batch schedule: %v", s.Name(), err)
	}
	return asgn.Makespan(0)
}

func randomBatch(t *testing.T, g *graph.Graph, k, nObj, nTx int, seed int64) ([]*core.Transaction, map[core.ObjID]Avail) {
	t.Helper()
	in, err := workload.Generate(g, workload.Config{
		K: k, NumObjects: nObj, Rounds: (nTx + g.N() - 1) / g.N(), Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	txns := in.Txns
	if len(txns) > nTx {
		txns = txns[:nTx]
	}
	avail := make(map[core.ObjID]Avail)
	for _, o := range in.Objects {
		avail[o.ID] = Avail{Node: o.Origin, Free: 0}
	}
	return txns, avail
}

func TestProblemValidate(t *testing.T) {
	g, _ := graph.Clique(4)
	p := &Problem{
		G:    g,
		Txns: []*core.Transaction{{ID: 0, Node: 0, Objects: []core.ObjID{0}}},
	}
	if err := p.Validate(); err == nil {
		t.Error("missing availability: want error")
	}
	p.Avail = map[core.ObjID]Avail{0: {Node: 1, Free: 0}}
	if err := p.Validate(); err != nil {
		t.Errorf("valid problem rejected: %v", err)
	}
	if err := (&Problem{}).Validate(); err == nil {
		t.Error("nil graph: want error")
	}
}

// TestSchedulersRefuseDisconnectedGraph pins the refusal of a graph with
// two components, {0, 1} and {2, 3}: transactions at nodes 0 and 2 share
// object 0, available at node 1, so any tour or conflict weight between
// them is Infinite. Every scheduler and every session reports the same
// error instead of wrapped times.
func TestSchedulersRefuseDisconnectedGraph(t *testing.T) {
	g := graph.MustNew(4, []graph.Link{{U: 0, V: 1, W: 1}, {U: 2, V: 3, W: 1}})
	txns := []*core.Transaction{
		{ID: 0, Node: 0, Objects: []core.ObjID{0}},
		{ID: 1, Node: 2, Objects: []core.ObjID{0}},
	}
	avail := map[core.ObjID]Avail{0: {Node: 1}}
	const want = "batch: graph(n=4, m=2) is disconnected"
	for _, s := range sessionSchedulers() {
		p := &Problem{G: g, Txns: txns, Avail: avail}
		if a, err := s.Schedule(p); err == nil || err.Error() != want {
			t.Errorf("%s: Schedule = %v, %v; want error %q", s.Name(), a, err, want)
		}
		sess := NewSession(s, &Problem{G: g, Avail: avail}, obs.New())
		for _, tx := range txns {
			sess.Push(tx)
		}
		if c, err := sess.Cost(); err == nil || err.Error() != want {
			t.Errorf("%s: session Cost = %d, %v; want error %q", s.Name(), c, err, want)
		}
		if a, err := sess.Assign(); err == nil || err.Error() != want {
			t.Errorf("%s: session Assign = %v, %v; want error %q", s.Name(), a, err, want)
		}
	}
}

func TestSchedulersFeasibleOnTopologies(t *testing.T) {
	schedulers := []Scheduler{Coloring{}, Tour{}}
	tops := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Clique(10) },
		func() (*graph.Graph, error) { return graph.Line(16) },
		func() (*graph.Graph, error) { return graph.Hypercube(4) },
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 4, RayLen: 4}) },
		func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4}) },
	}
	for _, mk := range tops {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		txns, avail := randomBatch(t, g, 2, 8, g.N(), 7)
		for _, s := range schedulers {
			replayBatch(t, g, txns, avail, s)
		}
	}
}

func TestAvailabilityRespected(t *testing.T) {
	g, _ := graph.Line(10)
	txns := []*core.Transaction{
		{ID: 0, Node: 9, Objects: []core.ObjID{0}},
	}
	avail := map[core.ObjID]Avail{0: {Node: 0, Free: 100}}
	for _, s := range []Scheduler{Coloring{}, Tour{}} {
		p := &Problem{G: g, Now: 0, Txns: txns, Avail: avail}
		asgn, err := s.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if asgn[0] < 109 {
			t.Errorf("%s: exec = %d, want >= 109 (free at 100 + distance 9)", s.Name(), asgn[0])
		}
	}
}

func TestArrivalRespected(t *testing.T) {
	g, _ := graph.Clique(4)
	txns := []*core.Transaction{
		{ID: 0, Node: 0, Arrival: 55, Objects: []core.ObjID{0}},
	}
	avail := map[core.ObjID]Avail{0: {Node: 0, Free: 0}}
	for _, s := range []Scheduler{Coloring{}, Tour{}} {
		asgn, err := s.Schedule(&Problem{G: g, Now: 0, Txns: txns, Avail: avail})
		if err != nil {
			t.Fatal(err)
		}
		if asgn[0] < 55 {
			t.Errorf("%s: exec = %d, want >= arrival 55", s.Name(), asgn[0])
		}
	}
}

func TestTourComponentsRunInParallel(t *testing.T) {
	// Two disjoint conflict components at opposite ends of a long line:
	// the tour scheduler must not serialize them (makespan stays local).
	g, _ := graph.Line(100)
	txns := []*core.Transaction{
		{ID: 0, Node: 0, Objects: []core.ObjID{0}},
		{ID: 1, Node: 5, Objects: []core.ObjID{0}},
		{ID: 2, Node: 95, Objects: []core.ObjID{1}},
		{ID: 3, Node: 99, Objects: []core.ObjID{1}},
	}
	avail := map[core.ObjID]Avail{
		0: {Node: 2, Free: 0},
		1: {Node: 97, Free: 0},
	}
	mk := replayBatch(t, g, txns, avail, Tour{})
	if mk > 40 {
		t.Errorf("tour makespan = %d across disjoint components, want local (<= 40)", mk)
	}
}

func TestTourOnLineIsSweepLike(t *testing.T) {
	// One object requested along the whole line: makespan should be O(n),
	// close to the span, not quadratic.
	g, _ := graph.Line(32)
	var txns []*core.Transaction
	for i := 0; i < 32; i += 2 {
		txns = append(txns, &core.Transaction{ID: core.TxID(i / 2), Node: graph.NodeID(i), Objects: []core.ObjID{0}})
	}
	avail := map[core.ObjID]Avail{0: {Node: 0, Free: 0}}
	mk := replayBatch(t, g, txns, avail, Tour{})
	if mk > 3*31 {
		t.Errorf("tour makespan = %d on line sweep, want <= %d", mk, 3*31)
	}
}

func TestColoringCliqueShape(t *testing.T) {
	// Clique, one hot object, l requesters: coloring serializes them with
	// unit gaps — makespan close to l (the l_max lower bound).
	g, _ := graph.Clique(12)
	var txns []*core.Transaction
	for i := 0; i < 10; i++ {
		txns = append(txns, &core.Transaction{ID: core.TxID(i), Node: graph.NodeID(i + 1), Objects: []core.ObjID{0}})
	}
	avail := map[core.ObjID]Avail{0: {Node: 0, Free: 0}}
	mk := replayBatch(t, g, txns, avail, Coloring{})
	if mk < 10 || mk > 20 {
		t.Errorf("coloring makespan = %d, want in [10,20] for 10 unit-clique requesters", mk)
	}
}

func TestMakespanHelper(t *testing.T) {
	a := Assignment{0: 10, 1: 25, 2: 7}
	if m := a.Makespan(5); m != 20 {
		t.Errorf("Makespan = %d, want 20", m)
	}
	if m := (Assignment{}).Makespan(5); m != 0 {
		t.Errorf("empty Makespan = %d, want 0", m)
	}
}

func TestCostMatchesScheduleMakespan(t *testing.T) {
	g, _ := graph.Clique(6)
	txns, avail := randomBatch(t, g, 2, 6, 6, 3)
	p := &Problem{G: g, Now: 0, Txns: txns, Avail: avail}
	for _, s := range []Scheduler{Coloring{}, Tour{}} {
		c, err := Cost(s, p)
		if err != nil {
			t.Fatal(err)
		}
		asgn, err := s.Schedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if c != asgn.Makespan(0) {
			t.Errorf("%s: Cost %d != Makespan %d (non-deterministic scheduler?)", s.Name(), c, asgn.Makespan(0))
		}
	}
}

// Property: both batch schedulers produce engine-feasible schedules on
// random problems over random graphs.
func TestBatchAlwaysFeasible(t *testing.T) {
	check := func(seed int64) bool {
		s := seed
		if s < 0 {
			s = -s
		}
		g, err := graph.RandomConnected(8+int(s%8), int(s%12), 3, s)
		if err != nil {
			return false
		}
		txns, avail := randomBatchQuiet(g, 1+int(s%3), 6, g.N(), s)
		for _, sched := range []Scheduler{Coloring{}, Tour{}} {
			p := &Problem{G: g, Now: 0, Txns: txns, Avail: avail}
			asgn, err := sched.Schedule(p)
			if err != nil {
				return false
			}
			if !feasible(g, txns, avail, asgn) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func randomBatchQuiet(g *graph.Graph, k, nObj, nTx int, seed int64) ([]*core.Transaction, map[core.ObjID]Avail) {
	in, err := workload.Generate(g, workload.Config{
		K: k, NumObjects: nObj, Rounds: (nTx + g.N() - 1) / g.N(), Seed: seed,
	})
	if err != nil {
		return nil, nil
	}
	txns := in.Txns
	if len(txns) > nTx {
		txns = txns[:nTx]
	}
	avail := make(map[core.ObjID]Avail)
	for _, o := range in.Objects {
		avail[o.ID] = Avail{Node: o.Origin, Free: 0}
	}
	return txns, avail
}

func feasible(g *graph.Graph, txns []*core.Transaction, avail map[core.ObjID]Avail, asgn Assignment) bool {
	var maxObj core.ObjID
	for _, tx := range txns {
		for _, o := range tx.Objects {
			if o > maxObj {
				maxObj = o
			}
		}
	}
	in := &core.Instance{G: g}
	for o := core.ObjID(0); o <= maxObj; o++ {
		a, ok := avail[o]
		if !ok {
			a = Avail{Node: 0, Free: 0}
		}
		in.Objects = append(in.Objects, &core.Object{ID: o, Origin: a.Node, Created: a.Free})
	}
	var decisions []core.Decision
	for i, tx := range txns {
		in.Txns = append(in.Txns, &core.Transaction{
			ID: core.TxID(i), Node: tx.Node, Arrival: tx.Arrival, Objects: tx.Objects,
		})
		decisions = append(decisions, core.Decision{Tx: core.TxID(i), Exec: asgn[tx.ID], At: 0})
	}
	_, err := core.Replay(in, decisions, core.SimOptions{}, nil)
	return err == nil
}
