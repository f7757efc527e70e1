package core

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"dtm/internal/graph"
	"dtm/internal/obs"
)

func lineInstance(t testing.TB, n int, objs []*Object, txns []*Transaction) *Instance {
	t.Helper()
	g, err := graph.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{G: g, Objects: objs, Txns: txns}
}

func TestValidateCatchesBadInstances(t *testing.T) {
	g, _ := graph.Line(4)
	ok := &Instance{
		G:       g,
		Objects: []*Object{{ID: 0, Origin: 0}},
		Txns:    []*Transaction{{ID: 0, Node: 1, Objects: []ObjID{0}}},
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	disconnected := graph.MustNew(3, nil)
	cases := []struct {
		name string
		in   *Instance
	}{
		{"no graph", &Instance{}},
		{"disconnected", &Instance{G: disconnected}},
		{"bad object id", &Instance{G: g, Objects: []*Object{{ID: 5, Origin: 0}}}},
		{"object origin out of range", &Instance{G: g, Objects: []*Object{{ID: 0, Origin: 9}}}},
		{"object negative created", &Instance{G: g, Objects: []*Object{{ID: 0, Origin: 0, Created: -1}}}},
		{"tx unknown object", &Instance{G: g,
			Objects: []*Object{{ID: 0, Origin: 0}},
			Txns:    []*Transaction{{ID: 0, Node: 0, Objects: []ObjID{3}}}}},
		{"tx no objects", &Instance{G: g,
			Objects: []*Object{{ID: 0, Origin: 0}},
			Txns:    []*Transaction{{ID: 0, Node: 0}}}},
		{"tx unsorted objects", &Instance{G: g,
			Objects: []*Object{{ID: 0, Origin: 0}, {ID: 1, Origin: 1}},
			Txns:    []*Transaction{{ID: 0, Node: 0, Objects: []ObjID{1, 0}}}}},
		{"tx duplicate objects", &Instance{G: g,
			Objects: []*Object{{ID: 0, Origin: 0}},
			Txns:    []*Transaction{{ID: 0, Node: 0, Objects: []ObjID{0, 0}}}}},
		{"tx node out of range", &Instance{G: g,
			Objects: []*Object{{ID: 0, Origin: 0}},
			Txns:    []*Transaction{{ID: 0, Node: 7, Objects: []ObjID{0}}}}},
		{"tx negative arrival", &Instance{G: g,
			Objects: []*Object{{ID: 0, Origin: 0}},
			Txns:    []*Transaction{{ID: 0, Node: 0, Arrival: -2, Objects: []ObjID{0}}}}},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		}
	}
}

func TestConflicts(t *testing.T) {
	a := &Transaction{Objects: []ObjID{1, 3, 5}}
	b := &Transaction{Objects: []ObjID{2, 4, 5}}
	c := &Transaction{Objects: []ObjID{0, 2}}
	if !a.Conflicts(b) || !b.Conflicts(a) {
		t.Error("a and b share object 5")
	}
	if a.Conflicts(c) {
		t.Error("a and c are disjoint")
	}
	if !b.Conflicts(c) {
		t.Error("b and c share object 2")
	}
}

func TestNormalizeObjects(t *testing.T) {
	got := NormalizeObjects([]ObjID{3, 1, 3, 2, 1})
	want := []ObjID{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSingleTransactionCoLocated(t *testing.T) {
	in := lineInstance(t, 3,
		[]*Object{{ID: 0, Origin: 1}},
		[]*Transaction{{ID: 0, Node: 1, Objects: []ObjID{0}}})
	res, err := Replay(in, []Decision{{Tx: 0, Exec: 0, At: 0}}, SimOptions{}, nil)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if res.Makespan != 0 || res.MaxLat != 0 || res.TotalComm != 0 {
		t.Errorf("result = %+v, want zeros", res)
	}
}

func TestObjectMustTravel(t *testing.T) {
	in := lineInstance(t, 6,
		[]*Object{{ID: 0, Origin: 0}},
		[]*Transaction{{ID: 0, Node: 5, Objects: []ObjID{0}}})
	// Distance 5: exec at t=5 is feasible, t=4 is not.
	if _, err := Replay(in, []Decision{{Tx: 0, Exec: 5, At: 0}}, SimOptions{}, nil); err != nil {
		t.Fatalf("exec=5 should be feasible: %v", err)
	}
	_, err := Replay(in, []Decision{{Tx: 0, Exec: 4, At: 0}}, SimOptions{}, nil)
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("exec=4 should violate, got %v", err)
	}
	if verr.Tx != 0 || verr.Obj != 0 || verr.At != 4 {
		t.Errorf("violation = %+v", verr)
	}
}

func TestTwoConflictingTransactionsOnLine(t *testing.T) {
	in := lineInstance(t, 10,
		[]*Object{{ID: 0, Origin: 0}},
		[]*Transaction{
			{ID: 0, Node: 2, Objects: []ObjID{0}},
			{ID: 1, Node: 7, Objects: []ObjID{0}},
		})
	// Object: 0 -> 2 (t=2), 2 -> 7 (5 more). Gaps of exactly the distances.
	if _, err := Replay(in, []Decision{
		{Tx: 0, Exec: 2, At: 0},
		{Tx: 1, Exec: 7, At: 0},
	}, SimOptions{}, nil); err != nil {
		t.Fatalf("tight schedule should be feasible: %v", err)
	}
	// One step too tight for the second hop.
	if _, err := Replay(in, []Decision{
		{Tx: 0, Exec: 2, At: 0},
		{Tx: 1, Exec: 6, At: 0},
	}, SimOptions{}, nil); err == nil {
		t.Fatal("gap 4 < dist 5 should violate")
	}
}

func TestObjectServesUsersInExecOrderNotDecisionOrder(t *testing.T) {
	// Second decision has the EARLIER execution time; the object must visit
	// it first even though it was decided later.
	in := lineInstance(t, 12,
		[]*Object{{ID: 0, Origin: 2}},
		[]*Transaction{
			{ID: 0, Node: 11, Objects: []ObjID{0}}, // far user
			{ID: 1, Node: 0, Objects: []ObjID{0}},  // near user, inserted later
		})
	// t=0: schedule tx0 at t=20 (object starts toward node 11).
	// t=1: object is at node 3; schedule tx1 at node 0 exec t=1+ObjDist.
	s, err := NewSim(in, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(0, 20); err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	// At t=1 the object has hopped to node 3 and already committed to the
	// edge toward node 4 (forward-only rule): 1 step remaining + 4 back.
	d := s.ObjDistTo(0, 0)
	if d != 5 {
		t.Fatalf("ObjDistTo = %d, want 5", d)
	}
	if err := s.Decide(1, 1+Time(d)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatalf("run: %v", err)
	}
	// tx1 executed at t=6, then object travels 0 -> 11 (11 steps), arriving
	// t=17 <= 20: tx0 fine.
	if got, _ := s.Executed(1); got != 6 {
		t.Errorf("tx1 exec = %d, want 6", got)
	}
}

func TestForwardOnlyRuleOnHeavyEdge(t *testing.T) {
	// Weight-3 edges: an object mid-edge must finish crossing before
	// reversing, so a user behind it pays (remaining + way back).
	in := &Instance{
		G:       graph.MustNew(3, []graph.Link{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 3}}),
		Objects: []*Object{{ID: 0, Origin: 0}},
		Txns: []*Transaction{
			{ID: 0, Node: 2, Objects: []ObjID{0}},
			{ID: 1, Node: 0, Objects: []ObjID{0}},
		},
	}
	s, err := NewSim(in, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(0); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(0, 50); err != nil { // object departs toward node 2
		t.Fatal(err)
	}
	if err := s.AdvanceTo(1); err != nil {
		t.Fatal(err)
	}
	loc := s.ObjectLocation(0)
	if !loc.InTransit || loc.Next != 1 || loc.Arrive != 3 {
		t.Fatalf("object location = %+v, want in transit to 1 arriving t=3", loc)
	}
	// Remaining 2 steps to node 1, then 3 back to node 0 = 5.
	if d := s.ObjDistTo(0, 0); d != 5 {
		t.Fatalf("ObjDistTo(0) = %d, want 5", d)
	}
	// exec = now + 5 = 6 is feasible; 5 is not.
	if err := s.Decide(1, 6); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got, _ := s.Executed(1); got != 6 {
		t.Errorf("tx1 exec = %d, want 6", got)
	}
}

func TestForwardOnlyViolationDetected(t *testing.T) {
	in := &Instance{
		G:       graph.MustNew(3, []graph.Link{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 3}}),
		Objects: []*Object{{ID: 0, Origin: 0}},
		Txns: []*Transaction{
			{ID: 0, Node: 2, Objects: []ObjID{0}},
			{ID: 1, Node: 0, Objects: []ObjID{0}},
		},
	}
	// Naive static check would allow exec=4 for tx1 (dist(0,0)=0 at decision
	// time... but the object left at t=0); the engine must catch it.
	_, err := Replay(in, []Decision{
		{Tx: 0, Exec: 50, At: 0},
		{Tx: 1, Exec: 4, At: 1},
	}, SimOptions{}, nil)
	var verr *ViolationError
	if !errors.As(err, &verr) {
		t.Fatalf("want violation, got %v", err)
	}
}

func TestDecideValidation(t *testing.T) {
	in := lineInstance(t, 4,
		[]*Object{{ID: 0, Origin: 0}},
		[]*Transaction{{ID: 0, Node: 0, Arrival: 5, Objects: []ObjID{0}}})
	s, err := NewSim(in, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(3, 0); err == nil {
		t.Error("unknown tx: want error")
	}
	if err := s.Decide(0, 2); err == nil {
		t.Error("exec before arrival: want error")
	}
	if err := s.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(0, 9); err == nil {
		t.Error("exec in past: want error")
	}
	if err := s.Decide(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(0, 11); err == nil {
		t.Error("double decide: want error")
	}
	if err := s.AdvanceTo(5); err == nil {
		t.Error("rewind: want error")
	}
}

func TestRunToCompletionStuckOnUndecided(t *testing.T) {
	in := lineInstance(t, 4,
		[]*Object{{ID: 0, Origin: 0}},
		[]*Transaction{{ID: 0, Node: 0, Objects: []ObjID{0}}})
	s, err := NewSim(in, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err == nil {
		t.Error("want stuck error for undecided transaction")
	}
}

func TestObjectCreatedLate(t *testing.T) {
	in := lineInstance(t, 4,
		[]*Object{{ID: 0, Origin: 0, Created: 10}},
		[]*Transaction{{ID: 0, Node: 3, Objects: []ObjID{0}}})
	// Object exists at t=10 and needs 3 steps: exec 13 ok, 12 not.
	if _, err := Replay(in, []Decision{{Tx: 0, Exec: 13, At: 0}}, SimOptions{}, nil); err != nil {
		t.Fatalf("exec=13: %v", err)
	}
	if _, err := Replay(in, []Decision{{Tx: 0, Exec: 12, At: 0}}, SimOptions{}, nil); err == nil {
		t.Fatal("exec=12 should violate (object created at t=10)")
	}
}

func TestSlowFactorDoublesTravel(t *testing.T) {
	in := lineInstance(t, 6,
		[]*Object{{ID: 0, Origin: 0}},
		[]*Transaction{{ID: 0, Node: 5, Objects: []ObjID{0}}})
	if _, err := Replay(in, []Decision{{Tx: 0, Exec: 10, At: 0}}, SimOptions{SlowFactor: 2}, nil); err != nil {
		t.Fatalf("exec=10 at half speed: %v", err)
	}
	if _, err := Replay(in, []Decision{{Tx: 0, Exec: 9, At: 0}}, SimOptions{SlowFactor: 2}, nil); err == nil {
		t.Fatal("exec=9 at half speed should violate")
	}
}

// A slow factor whose product with the path bound (N−1) × the largest
// edge weight reaches graph.Infinite would let travel times wrap negative,
// so objects would arrive in the past. NewSim refuses it, from exactly
// that boundary on, and names both values.
func TestNewSimRefusesOverflowingSlowFactor(t *testing.T) {
	// star has the given number of leaves on edges of weight w, and one
	// transaction at a leaf for an object at the center.
	star := func(leaves int, w graph.Weight) *Instance {
		var links []graph.Link
		for v := 1; v <= leaves; v++ {
			links = append(links, graph.Link{U: 0, V: graph.NodeID(v), W: w})
		}
		return &Instance{G: graph.MustNew(leaves+1, links), Objects: []*Object{{ID: 0, Origin: 0}},
			Txns: []*Transaction{{ID: 0, Node: 1, Objects: []ObjID{0}}}}
	}
	// Path bound 2 × 2^20 = 2^21; slow factor 2^41 puts the product at
	// graph.Infinite = 2^62.
	if _, err := NewSim(star(2, 1<<20), SimOptions{SlowFactor: 1<<41 - 1}, nil); err != nil {
		t.Errorf("product below Infinite: %v", err)
	}
	_, err := NewSim(star(2, 1<<20), SimOptions{SlowFactor: 1 << 41}, nil)
	if err == nil {
		t.Fatal("product at Infinite: NewSim accepted it")
	}
	for _, v := range []string{"2199023255552", "2097152"} {
		if !strings.Contains(err.Error(), v) {
			t.Errorf("error %q does not name %s", err, v)
		}
	}
	// 8 × 2^60 wraps int64 to a negative bound; the bound saturates instead.
	if _, err := NewSim(star(8, 1<<60), SimOptions{SlowFactor: 2}, nil); err == nil {
		t.Error("path bound past Infinite at slow factor 2: NewSim accepted it")
	}
	// At full speed there is nothing to bound: Dijkstra keeps every Dist
	// below Infinite.
	if _, err := NewSim(star(8, 1<<60), SimOptions{}, nil); err != nil {
		t.Errorf("slow factor 1: %v", err)
	}
	// A negative factor is not a speed, full or otherwise.
	if _, err := NewSim(star(2, 1), SimOptions{SlowFactor: -1}, nil); err == nil {
		t.Error("slow factor -1: NewSim accepted it")
	}
}

func TestNewSimRefusesNegativeLinkCapacity(t *testing.T) {
	in := lineInstance(t, 3, []*Object{{ID: 0, Origin: 0}},
		[]*Transaction{{ID: 0, Node: 2, Objects: []ObjID{0}}})
	_, err := NewSim(in, SimOptions{LinkCapacity: -1}, nil)
	if err == nil || !strings.Contains(err.Error(), "link capacity -1") {
		t.Errorf("capacity -1: error %v, want one naming link capacity -1", err)
	}
	for _, c := range []int{0, 2} {
		if _, err := NewSim(in, SimOptions{LinkCapacity: c}, nil); err != nil {
			t.Errorf("capacity %d: %v", c, err)
		}
	}
}

// Within one step, transactions execute in the order they were decided:
// exec events at one time and priority pop in push order, so the commit
// events of two same-step transactions follow the decision list, not
// their IDs.
func TestSameStepCommitsInDecisionOrder(t *testing.T) {
	in := lineInstance(t, 4,
		[]*Object{{ID: 0, Origin: 0}, {ID: 1, Origin: 3}},
		[]*Transaction{
			{ID: 0, Node: 1, Objects: []ObjID{0}},
			{ID: 1, Node: 2, Objects: []ObjID{1}},
		})
	for _, order := range [][]TxID{{1, 0}, {0, 1}} {
		sink := &obs.SliceSink{}
		m := obs.New()
		m.SetSink(sink)
		var decs []Decision
		for _, tx := range order {
			decs = append(decs, Decision{Tx: tx, Exec: 2, At: 0})
		}
		if _, err := Replay(in, decs, SimOptions{}, m); err != nil {
			t.Fatal(err)
		}
		var commits []TxID
		for _, e := range sink.Events() {
			if e.Kind == "commit" {
				if e.At != 2 {
					t.Errorf("tx %d committed at t=%d, want 2", e.Tx, e.At)
				}
				commits = append(commits, TxID(e.Tx))
			}
		}
		if !slices.Equal(commits, order) {
			t.Errorf("decided in order %v: commits in order %v", order, commits)
		}
	}
}

func TestResultMetrics(t *testing.T) {
	in := lineInstance(t, 10,
		[]*Object{{ID: 0, Origin: 0}, {ID: 1, Origin: 9}},
		[]*Transaction{
			{ID: 0, Node: 4, Arrival: 0, Objects: []ObjID{0}},
			{ID: 1, Node: 4, Arrival: 2, Objects: []ObjID{1}},
		})
	res, err := Replay(in, []Decision{
		{Tx: 0, Exec: 4, At: 0},
		{Tx: 1, Exec: 7, At: 2},
	}, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 7 {
		t.Errorf("Makespan = %d, want 7", res.Makespan)
	}
	if res.MaxLat != 5 {
		t.Errorf("MaxLat = %d, want 5", res.MaxLat)
	}
	if res.Latency[0] != 4 || res.Latency[1] != 5 {
		t.Errorf("Latency = %v, want [4 5]", res.Latency)
	}
	if res.TotalComm != 4+5 {
		t.Errorf("TotalComm = %d, want 9", res.TotalComm)
	}
	if got := res.MeanLat(); got != 4.5 {
		t.Errorf("MeanLat = %v, want 4.5", got)
	}
}

func TestReplayRequiresSortedDecisions(t *testing.T) {
	in := lineInstance(t, 4,
		[]*Object{{ID: 0, Origin: 0}},
		[]*Transaction{
			{ID: 0, Node: 0, Objects: []ObjID{0}},
			{ID: 1, Node: 1, Objects: []ObjID{0}},
		})
	_, err := Replay(in, []Decision{
		{Tx: 0, Exec: 5, At: 3},
		{Tx: 1, Exec: 9, At: 1},
	}, SimOptions{}, nil)
	if err == nil {
		t.Fatal("unsorted decisions: want error")
	}
}

func TestArrivalHelpers(t *testing.T) {
	in := lineInstance(t, 4,
		[]*Object{{ID: 0, Origin: 0}},
		[]*Transaction{
			{ID: 0, Node: 0, Arrival: 3, Objects: []ObjID{0}},
			{ID: 1, Node: 1, Arrival: 0, Objects: []ObjID{0}},
			{ID: 2, Node: 2, Arrival: 3, Objects: []ObjID{0}},
		})
	times, groups := in.ArrivalGroups()
	if !slices.Equal(times, []Time{0, 3}) || len(groups) != 2 {
		t.Fatalf("ArrivalGroups times = %v (%d groups), want [0 3] (2 groups)", times, len(groups))
	}
	if g := groups[0]; len(g) != 1 || g[0].ID != 1 {
		t.Errorf("group at t=0 = %v, want [tx 1]", g)
	}
	if g := groups[1]; len(g) != 2 || g[0].ID != 0 || g[1].ID != 2 {
		t.Errorf("group at t=3 = %v, want [tx 0, tx 2]", g)
	}
	// Groups are capped: appending to one must not write into the next.
	if g := groups[0]; cap(g) != len(g) {
		t.Errorf("group at t=0 has cap %d for len %d", cap(g), len(g))
	}
	req := in.Requesters()
	if len(req[0]) != 3 {
		t.Errorf("Requesters[0] = %v", req[0])
	}
}

// Property: a fully serialized schedule — each transaction spaced by the
// graph diameter times a generous constant — is always feasible, on random
// instances over a line.
func TestSerializedScheduleAlwaysFeasible(t *testing.T) {
	check := func(seed int64) bool {
		rng := newTestRand(seed)
		n := 5 + rng.Intn(10)
		nObj := 1 + rng.Intn(4)
		nTx := 1 + rng.Intn(8)
		objs := make([]*Object, nObj)
		for i := range objs {
			objs[i] = &Object{ID: ObjID(i), Origin: graph.NodeID(rng.Intn(n))}
		}
		txns := make([]*Transaction, nTx)
		for i := range txns {
			k := 1 + rng.Intn(nObj)
			set := make([]ObjID, 0, k)
			for j := 0; j < k; j++ {
				set = append(set, ObjID(rng.Intn(nObj)))
			}
			txns[i] = &Transaction{
				ID:      TxID(i),
				Node:    graph.NodeID(rng.Intn(n)),
				Arrival: Time(rng.Intn(5)),
				Objects: NormalizeObjects(set),
			}
		}
		in := lineInstance(t, n, objs, txns)
		// Serialize: transaction i executes at (i+1) * 2n, decided at
		// arrival. Each gap exceeds the diameter so objects always make it.
		decisions := make([]Decision, nTx)
		for i := range decisions {
			decisions[i] = Decision{Tx: TxID(i), Exec: Time((i + 1) * 2 * n), At: txns[i].Arrival}
		}
		// Replay requires At-sorted order.
		sortDecisionsByAt(decisions)
		_, err := Replay(in, decisions, SimOptions{}, nil)
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestTreeWarmupMatchesLazyTrees pins the tree warm-up, the engine's only
// concurrent writer: two sims built at once with Parallel set race to
// build every tree of one fresh graph, and every distance and next hop
// must then match a graph whose trees were built one at a time by the
// queries themselves. `make race` runs it under the detector.
func TestTreeWarmupMatchesLazyTrees(t *testing.T) {
	mk := func() *graph.Graph {
		g, err := graph.RandomConnected(96, 160, 4, 7)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	warm, lazy := mk(), mk()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := &Instance{G: warm, Objects: []*Object{{ID: 0, Origin: 0}}}
			_, errs[i] = NewSim(in, SimOptions{Parallel: 2}, nil)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for u := graph.NodeID(0); int(u) < lazy.N(); u++ {
		for v := graph.NodeID(0); int(v) < lazy.N(); v++ {
			if got, want := warm.Dist(u, v), lazy.Dist(u, v); got != want {
				t.Fatalf("Dist(%d, %d) = %d on warmed trees, %d on lazy trees", u, v, got, want)
			}
			if got, want := warm.NextHop(u, v), lazy.NextHop(u, v); got != want {
				t.Fatalf("NextHop(%d, %d) = %d on warmed trees, %d on lazy trees", u, v, got, want)
			}
		}
	}
}
