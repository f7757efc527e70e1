package core

import (
	"testing"
	"testing/quick"

	"dtm/internal/graph"
	"dtm/internal/obs"
)

// twoObjectFunnel: two objects at node 0 must cross the single edge 0-1 to
// reach users at node 1. With capacity 1 the second waits a full traversal.
func twoObjectFunnel(t *testing.T, w graph.Weight) *Instance {
	t.Helper()
	return &Instance{
		G: graph.MustNew(2, []graph.Link{{U: 0, V: 1, W: w}}),
		Objects: []*Object{
			{ID: 0, Origin: 0},
			{ID: 1, Origin: 0},
		},
		Txns: []*Transaction{
			{ID: 0, Node: 1, Objects: []ObjID{0}},
			{ID: 1, Node: 1, Objects: []ObjID{1}},
		},
	}
}

func TestUnboundedCapacityBothArriveTogether(t *testing.T) {
	in := twoObjectFunnel(t, 3)
	res, err := Replay(in, []Decision{
		{Tx: 0, Exec: 3, At: 0},
		{Tx: 1, Exec: 3, At: 0},
	}, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3 {
		t.Errorf("makespan = %d, want 3", res.Makespan)
	}
}

func TestCapacityOneSerializesTheLink(t *testing.T) {
	in := twoObjectFunnel(t, 3)
	// Capacity-oblivious schedule: both at t=3. Bounded links make commits
	// elastic, so the second commit slides to t=6.
	res, err := Replay(in, []Decision{
		{Tx: 0, Exec: 3, At: 0},
		{Tx: 1, Exec: 3, At: 0},
	}, SimOptions{LinkCapacity: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 6 {
		t.Errorf("makespan = %d, want 6 (second traversal queued)", res.Makespan)
	}
	if res.Latency[0] != 3 || res.Latency[1] != 6 {
		t.Errorf("latencies = %v, want [3 6]", res.Latency)
	}
}

func TestCapacityTwoRestoresParallelTraversal(t *testing.T) {
	in := twoObjectFunnel(t, 3)
	res, err := Replay(in, []Decision{
		{Tx: 0, Exec: 3, At: 0},
		{Tx: 1, Exec: 3, At: 0},
	}, SimOptions{LinkCapacity: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 3 {
		t.Errorf("makespan = %d, want 3", res.Makespan)
	}
}

func TestElasticPreservesPerObjectOrder(t *testing.T) {
	// One object, two users in decided order; even if the later-decided
	// user is co-located with the object, it must wait its turn. One
	// object never queues, so capacity 1 only turns commits elastic.
	g, err := graph.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{
		G:       g,
		Objects: []*Object{{ID: 0, Origin: 0}},
		Txns: []*Transaction{
			{ID: 0, Node: 4, Objects: []ObjID{0}}, // decided first
			{ID: 1, Node: 0, Objects: []ObjID{0}}, // co-located, decided later
		},
	}
	res, err := Replay(in, []Decision{
		{Tx: 0, Exec: 4, At: 0},
		{Tx: 1, Exec: 9, At: 0},
	}, SimOptions{LinkCapacity: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Order by decided time: tx0 at 4, then the object returns to node 0:
	// tx1 commits at 9 as decided (4 + 4 travel <= 9).
	if res.Latency[0] != 4 || res.Latency[1] != 9 {
		t.Errorf("latencies = %v, want [4 9]", res.Latency)
	}
}

// TestElasticOnTimeWaitsForEarlierUser pins the per-object order for a
// transaction that is on time: object 1 is queued at node 0 behind object
// 0 on the capacity-1 edge {0,1}, so tx1 (exec 3) is late, and tx2 at node
// 0 (exec 4) must wait for it although object 1 sits at its node. tx1
// commits once object 1 crosses both edges, at 5+5+1 = 11, and tx2 once
// it is back, at 11+1+5 = 17. Both waits count in core.elastic_waits.
func TestElasticOnTimeWaitsForEarlierUser(t *testing.T) {
	in := &Instance{
		G:       graph.MustNew(3, []graph.Link{{U: 0, V: 1, W: 5}, {U: 1, V: 2, W: 1}}),
		Objects: []*Object{{ID: 0, Origin: 0}, {ID: 1, Origin: 0}},
		Txns: []*Transaction{
			{ID: 0, Node: 1, Objects: []ObjID{0}},
			{ID: 1, Node: 2, Objects: []ObjID{1}},
			{ID: 2, Node: 0, Objects: []ObjID{1}},
		},
	}
	m := obs.New()
	res, err := Replay(in, []Decision{
		{Tx: 0, Exec: 5, At: 0},
		{Tx: 1, Exec: 3, At: 0},
		{Tx: 2, Exec: 4, At: 0},
	}, SimOptions{LinkCapacity: 1}, m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency[0] != 5 || res.Latency[1] != 11 || res.Latency[2] != 17 {
		t.Errorf("commit times = %v, want [5 11 17]", res.Latency)
	}
	if got := m.Snapshot().Counters[obs.NameCoreElasticWaits.String()]; got != 2 {
		t.Errorf("elastic waits = %d, want 2", got)
	}
}

func TestElasticDelaysLateObjects(t *testing.T) {
	// Decided time too early for the travel distance: elastic commits
	// (bounded links) run at first feasibility instead of failing.
	g, err := graph.Line(8)
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{
		G:       g,
		Objects: []*Object{{ID: 0, Origin: 0}},
		Txns:    []*Transaction{{ID: 0, Node: 7, Objects: []ObjID{0}}},
	}
	res, err := Replay(in, []Decision{{Tx: 0, Exec: 2, At: 0}}, SimOptions{LinkCapacity: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 7 {
		t.Errorf("makespan = %d, want 7 (commit at arrival)", res.Makespan)
	}
}

// Property: under elastic commits with any capacity, runs always complete
// (no deadlock from edge queues + head-of-queue commits) and the makespan
// is monotone: capacity 1 >= capacity 2 >= unbounded. The decisions sit
// 2N steps apart, so the unbounded replay is feasible as decided.
func TestCongestionMonotoneAndDeadlockFree(t *testing.T) {
	check := func(seed int64) bool {
		s := seed
		if s < 0 {
			s = -s
		}
		g, err := graph.Line(6 + int(s%6))
		if err != nil {
			return false
		}
		rng := newTestRand(s)
		nObj := 3 + rng.Intn(3)
		objs := make([]*Object, nObj)
		for i := range objs {
			objs[i] = &Object{ID: ObjID(i), Origin: graph.NodeID(rng.Intn(g.N()))}
		}
		nTx := 4 + rng.Intn(6)
		txns := make([]*Transaction, nTx)
		for i := range txns {
			k := 1 + rng.Intn(2)
			set := make([]ObjID, 0, k)
			for j := 0; j < k; j++ {
				set = append(set, ObjID(rng.Intn(nObj)))
			}
			txns[i] = &Transaction{
				ID:      TxID(i),
				Node:    graph.NodeID(rng.Intn(g.N())),
				Objects: NormalizeObjects(set),
			}
		}
		in := &Instance{G: g, Objects: objs, Txns: txns}
		decisions := make([]Decision, nTx)
		for i := range decisions {
			decisions[i] = Decision{Tx: TxID(i), Exec: Time((i + 1) * 2 * g.N()), At: 0}
		}
		var prev Time = -1
		for _, cap := range []int{1, 2, 0} {
			res, err := Replay(in, decisions, SimOptions{LinkCapacity: cap}, nil)
			if err != nil {
				return false
			}
			if prev >= 0 && res.Makespan > prev {
				return false // tighter capacity must not be faster... (prev is the tighter one)
			}
			prev = res.Makespan
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
