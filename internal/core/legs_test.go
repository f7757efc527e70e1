package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dtm/internal/graph"
	"dtm/internal/obs"
)

// CompareLegsHops replays a decision list, sorted by At, through Sim and
// the frozen per-hop reference side by side (see compareLegsHops), once
// comparing positions at every step and once at a random quarter of
// them. It is exported for the golden-grid test in package core_test.
func CompareLegsHops(t testing.TB, in *Instance, decisions []Decision, opts SimOptions) {
	t.Helper()
	compareLegsHops(t, in, decisions, opts, nil)
	rng := rand.New(rand.NewSource(int64(len(decisions))))
	compareLegsHops(t, in, decisions, opts, func() bool { return rng.Intn(4) == 0 })
}

// compareLegsHops replays decisions through Sim and hopSim side by side.
// It advances both to every decision time and, when probe is nil, to
// every step until both runs end, comparing positions at each; otherwise
// it advances to a step and compares there only when probe says so,
// which lets legs cross several hops, and be cut, between two walks of
// their cursors. Both sims must fail alike or not at all, a first
// ViolationError included, and the positions compared are every
// object's ObjectLocation, its ObjDistTo every node, and TotalComm. At the end
// their commit and decide events must be equal, and the Sim's legs and
// cuts, expanded hop by hop through NextHop, must give exactly the
// reference's move events (see checkLegEvents).
func compareLegsHops(t testing.TB, in *Instance, decisions []Decision, opts SimOptions, probe func() bool) {
	t.Helper()
	legSink, hopSink := &obs.SliceSink{}, &obs.SliceSink{}
	m := obs.New()
	m.SetSink(legSink)
	hm := obs.New()
	hm.SetSink(hopSink)
	legs, err := NewSim(in, opts, m)
	if err != nil {
		t.Fatal(err)
	}
	hops, err := newHopSim(in, opts, hm)
	if err != nil {
		t.Fatal(err)
	}
	var end Time
	for _, d := range decisions {
		end = max(end, d.Exec)
	}
	failed := false
	visit := func(at Time, check bool) {
		t.Helper()
		lerr, herr := legs.AdvanceTo(at), hops.AdvanceTo(at)
		sameErr(t, at, lerr, herr)
		failed = lerr != nil
		if check && !failed {
			samePlaces(t, in, legs, hops)
		}
	}
	next := 0
	for now := Time(0); !failed; now++ {
		atDecision := next < len(decisions) && decisions[next].At == now
		if !atDecision && next == len(decisions) && (legs.AllExecuted() || now > end+1) {
			break
		}
		if probed := probe == nil || probe(); atDecision || probed {
			visit(now, probed)
		}
		for ; !failed && next < len(decisions) && decisions[next].At == now; next++ {
			d := decisions[next]
			lerr, herr := legs.Decide(d.Tx, d.Exec), hops.Decide(d.Tx, d.Exec)
			if (lerr == nil) != (herr == nil) {
				t.Fatalf("Decide(%d, %d) at t=%d: leg sim %v, per-hop sim %v", d.Tx, d.Exec, now, lerr, herr)
			}
			if lerr != nil {
				t.Fatalf("Decide(%d, %d) at t=%d: %v", d.Tx, d.Exec, now, lerr)
			}
		}
	}
	if !failed {
		// Elastic commits may wait past every decided step.
		lerr, herr := legs.RunToCompletion(), hops.RunToCompletion()
		sameErr(t, legs.Now(), lerr, herr)
		failed = lerr != nil
		if !failed && legs.TotalComm() != hops.TotalComm() {
			t.Fatalf("final TotalComm: leg sim %d, per-hop sim %d", legs.TotalComm(), hops.TotalComm())
		}
	}
	// A failed run stops mid-step: hops that would depart at its step
	// departed only if the step's dispatch ran before the failure.
	cutoff := Time(graph.Infinite)
	if failed {
		cutoff = legs.now
		if legs.dispatched == legs.now {
			cutoff++
		}
	}
	checkLegEvents(t, in, legs.SlowFactor(), cutoff, legSink.Events(), hopSink.Events())
	if !failed {
		checkLegMetrics(t, m.Snapshot(), hopSink.Events())
	}
}

// sameErr fails t unless both errors are nil, or both are equal
// ViolationErrors, or both are other errors.
func sameErr(t testing.TB, at Time, lerr, herr error) {
	t.Helper()
	var lv, hv *ViolationError
	switch {
	case (lerr == nil) != (herr == nil):
		t.Fatalf("t=%d: leg sim error %v, per-hop sim error %v", at, lerr, herr)
	case errors.As(lerr, &lv) != errors.As(herr, &hv):
		t.Fatalf("t=%d: leg sim error %v, per-hop sim error %v", at, lerr, herr)
	case lv != nil && *lv != *hv:
		t.Fatalf("t=%d: leg sim violation %+v, per-hop sim violation %+v", at, *lv, *hv)
	}
}

// samePlaces fails t unless both sims place every object alike.
func samePlaces(t testing.TB, in *Instance, legs *Sim, hops *hopSim) {
	t.Helper()
	for o := range in.Objects {
		o := ObjID(o)
		if l, h := legs.ObjectLocation(o), hops.ObjectLocation(o); l != h {
			t.Fatalf("t=%d: object %d location %+v, per-hop %+v", legs.Now(), o, l, h)
		}
		for x := graph.NodeID(0); int(x) < in.G.N(); x++ {
			if l, h := legs.ObjDistTo(o, x), hops.ObjDistTo(o, x); l != h {
				t.Fatalf("t=%d: object %d ObjDistTo(%d) = %d, per-hop %d", legs.Now(), o, x, l, h)
			}
		}
	}
	if l, h := legs.TotalComm(), hops.TotalComm(); l != h {
		t.Fatalf("t=%d: TotalComm %d, per-hop %d", legs.Now(), l, h)
	}
}

// kinds returns the events of one kind, in emission order.
func kinds(events []obs.Event, kind string) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// expandLegs turns the Sim's "move" and "cut" events into the per-hop
// "move" events of the same travel that depart before cutoff: each leg
// leaves the node its object last reached and crosses, at each node u,
// the edge to NextHop(u, end) of the leg's first end, stopping at its
// cut's node if it has one. It fails t if a cut names a node off that
// path or a step other than the one the path reaches it at, or if an
// uncut leg's hops do not sum to its weight. oneHop counts the legs of
// one hop.
func expandLegs(t testing.TB, in *Instance, slow graph.Weight, cutoff Time, events []obs.Event) (hops []obs.Event, oneHop, cuts int) {
	t.Helper()
	at := make([]graph.NodeID, len(in.Objects))
	for i, o := range in.Objects {
		at[i] = o.Origin
	}
	type leg struct {
		move   obs.Event
		stop   graph.NodeID
		stopAt int64
		cut    bool
	}
	open := make(map[int]*leg)
	flush := func(o int) {
		l := open[o]
		if l == nil {
			return
		}
		delete(open, o)
		end := graph.NodeID(l.move.Node)
		u, step, w, n := at[o], l.move.At, graph.Weight(0), 0
		for u != l.stop {
			if u == end {
				t.Fatalf("object %d: cut at node %d, off the path %d -> %d", o, l.stop, at[o], end)
			}
			hop := in.G.NextHop(u, end)
			hw := in.G.Dist(u, hop)
			if step < int64(cutoff) {
				hops = append(hops, obs.Event{At: step, Kind: "move", Obj: o, Node: int(hop), Value: int64(hw)})
			}
			step += int64(hw * slow)
			w += hw
			u = hop
			n++
		}
		if l.cut && step != l.stopAt {
			t.Fatalf("object %d: cut names arrival t=%d at node %d, the path reaches it at t=%d", o, l.stopAt, l.stop, step)
		}
		if !l.cut && int64(w) != l.move.Value {
			t.Fatalf("object %d: leg %+v crosses weight %d", o, l.move, w)
		}
		if n == 1 {
			oneHop++
		}
		at[o] = l.stop
	}
	for _, e := range events {
		switch e.Kind {
		case "move":
			flush(e.Obj)
			open[e.Obj] = &leg{move: e, stop: graph.NodeID(e.Node)}
		case "cut":
			l := open[e.Obj]
			if l == nil {
				t.Fatalf("cut %+v of an object with no leg", e)
			}
			l.stop, l.stopAt, l.cut = graph.NodeID(e.Node), e.Value, true
			cuts++
		}
	}
	for o := range in.Objects {
		flush(o)
	}
	return hops, oneHop, cuts
}

// byStepObj orders per-hop move events by (At, Obj): an object starts at
// most one hop a step, and the per-hop Sim emits a step's moves in object
// order.
func byStepObj(a, b obs.Event) int {
	return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Obj, b.Obj))
}

// checkLegEvents compares the two sims' event streams: commits and
// decisions event for event, and moves after expanding the Sim's legs.
// Where every leg is one hop and none was cut, the whole streams must be
// equal event for event.
func checkLegEvents(t testing.TB, in *Instance, slow int, cutoff Time, legEvents, hopEvents []obs.Event) {
	t.Helper()
	for _, kind := range []string{"commit", "decide"} {
		if l, h := kinds(legEvents, kind), kinds(hopEvents, kind); !reflect.DeepEqual(l, h) {
			t.Fatalf("%s events differ:\nleg sim %v\nper-hop %v", kind, l, h)
		}
	}
	expanded, oneHop, cuts := expandLegs(t, in, graph.Weight(slow), cutoff, legEvents)
	ref := kinds(hopEvents, "move")
	slices.SortStableFunc(expanded, byStepObj)
	slices.SortStableFunc(ref, byStepObj)
	if !reflect.DeepEqual(expanded, ref) {
		t.Fatalf("legs expand to %d hops, per-hop sim made %d:\nexpanded %v\nper-hop  %v", len(expanded), len(ref), expanded, ref)
	}
	if legs := len(kinds(legEvents, "move")); oneHop == legs && cuts == 0 && !reflect.DeepEqual(legEvents, hopEvents) {
		t.Fatalf("every leg is one hop, yet the event streams differ:\nleg sim %v\nper-hop %v", legEvents, hopEvents)
	}
}

// checkLegMetrics checks a finished run's leg metrics against the
// reference's hops: every leg started has finished, and the legs'
// weights sum to the weight the reference's hops crossed.
func checkLegMetrics(t testing.TB, snap *obs.Snapshot, hopEvents []obs.Event) {
	t.Helper()
	var hopW int64
	for _, e := range kinds(hopEvents, "move") {
		hopW += e.Value
	}
	moves := snap.Counters[obs.NameCoreObjectMoves.String()]
	travel := snap.Counters[obs.NameCoreTravelWeight.String()]
	legW := snap.Histograms[obs.NameCoreLegWeight.String()]
	if legW.Count != moves || legW.Sum != travel || travel != hopW {
		t.Fatalf("%d legs started, %d finished weighing %d; travel weight %d; the reference's hops weigh %d",
			moves, legW.Count, legW.Sum, travel, hopW)
	}
}

// tieGraph has equal-length paths that differ in hop count, so a leg's
// hops depend on its direction: NextHop(0, 2) is 2, across the weight-2
// edge, while NextHop(2, 0) is 1, over two unit edges.
func tieGraph() *graph.Graph {
	return graph.MustNew(6, []graph.Link{
		{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}, {U: 0, V: 2, W: 2},
		{U: 2, V: 3, W: 1}, {U: 3, V: 4, W: 1}, {U: 2, V: 4, W: 2},
		{U: 1, V: 3, W: 2}, {U: 4, V: 5, W: 1}, {U: 3, V: 5, W: 2},
		{U: 0, V: 5, W: 4},
	})
}

// byteSource reads fuzz input a byte at a time, then zeros.
type byteSource []byte

func (b *byteSource) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v % n
}

// fuzzDecisions builds a small instance on g and a decision list from
// data: up to 3 objects, some created late, and up to 9 transactions,
// each decided a few steps after it arrives for a step that is often too
// early. Several decisions share a step, and a later one that moves an
// object's head user elsewhere cuts the leg the object is on.
func fuzzDecisions(g *graph.Graph, data []byte) (*Instance, []Decision) {
	src := byteSource(data)
	n := g.N()
	in := &Instance{G: g}
	nObj, nTx := 1+src.next(3), 2+src.next(8)
	for i := 0; i < nObj; i++ {
		// One object in four is created at t=2.
		created := Time(2 * (src.next(4) / 3))
		in.Objects = append(in.Objects, &Object{ID: ObjID(i), Origin: graph.NodeID(src.next(n)), Created: created})
	}
	var decisions []Decision
	for i := 0; i < nTx; i++ {
		var objs []ObjID
		mask := 1 + src.next(1<<len(in.Objects)-1)
		for o := range in.Objects {
			if mask&(1<<o) != 0 {
				objs = append(objs, ObjID(o))
			}
		}
		tx := &Transaction{ID: TxID(i), Node: graph.NodeID(src.next(n)), Arrival: Time(src.next(8)), Objects: objs}
		in.Txns = append(in.Txns, tx)
		at := tx.Arrival + Time(src.next(4))
		decisions = append(decisions, Decision{Tx: tx.ID, At: at, Exec: at + Time(src.next(24))})
	}
	sortDecisionsByAt(decisions)
	return in, decisions
}

// FuzzLegsMatchHops replays random decision lists, feasible or not,
// through Sim and the per-hop reference on tie-heavy small graphs, at
// slow factors 1 to 3, on unbounded and on unit-capacity links, probing
// positions at a random subset of steps (see compareLegsHops).
func FuzzLegsMatchHops(f *testing.F) {
	f.Add(uint8(0), uint8(0), int64(1), []byte{2, 0, 8, 0, 4, 5, 0, 3, 0, 8, 1, 2, 7, 30, 8, 1, 3, 0, 6, 3, 8, 0, 2, 9, 3, 1, 1, 5})
	f.Add(uint8(1), uint8(1), int64(2), []byte{1, 0, 0, 5, 5, 1, 0, 1, 20, 5, 3, 2, 0, 4, 1, 0, 1, 0, 3, 6, 1, 1, 2, 5, 4, 2, 7})
	f.Add(uint8(2), uint8(2), int64(3), []byte{2, 8, 1, 0, 3, 0, 6, 2, 8, 0, 1, 13, 1, 1, 2, 0, 5, 2, 3, 1, 2, 1, 9, 3, 7, 0, 0, 6})
	f.Add(uint8(3), uint8(0), int64(4), []byte{0, 4, 0, 7, 1, 3, 0, 2, 11, 1, 0, 1, 1, 5, 1, 2, 1, 0, 2, 18, 1, 5, 3, 1, 4})
	f.Add(uint8(4), uint8(1), int64(5), []byte{1, 5, 0, 0, 0, 3, 4, 1, 0, 0, 9, 2, 2, 0, 3, 0, 3, 2, 1, 0, 12, 3, 3, 1, 1, 2})
	f.Fuzz(func(t *testing.T, topo, speed uint8, seed int64, data []byte) {
		g := tieGraph()
		if topo%2 == 0 {
			var err error
			if g, err = graph.Grid(3, 3); err != nil {
				t.Fatal(err)
			}
		}
		in, decisions := fuzzDecisions(g, data)
		opts := SimOptions{SlowFactor: 1 + int(speed%3), LinkCapacity: int(topo/2) % 2}
		rng := rand.New(rand.NewSource(seed))
		compareLegsHops(t, in, decisions, opts, func() bool { return rng.Intn(4) == 0 })
		compareLegsHops(t, in, decisions, opts, nil)
	})
}

// A decision that moves an object's head user to another node cuts the
// object's leg at the end of the hop in progress, and one that keeps the
// node does not. On Line(8), an object leaves node 0 for node 7 at t=0;
// at t=2 a user at node 7 with an earlier step keeps the leg, and at
// t=3 a user at node 1 cuts it at node 4, where the object turns back.
// The hop from node 3 to node 4 departs at t=3, so it is in progress.
func TestCutAtHopInProgress(t *testing.T) {
	in := lineInstance(t, 8, []*Object{{ID: 0, Origin: 0}}, []*Transaction{
		{ID: 0, Node: 7, Objects: []ObjID{0}},
		{ID: 1, Node: 7, Objects: []ObjID{0}},
		{ID: 2, Node: 1, Objects: []ObjID{0}},
	})
	decisions := []Decision{{Tx: 0, Exec: 40, At: 0}, {Tx: 1, Exec: 30, At: 2}, {Tx: 2, Exec: 7, At: 3}}
	sink := &obs.SliceSink{}
	m := obs.New()
	m.SetSink(sink)
	if _, err := Replay(in, decisions, SimOptions{}, m); err != nil {
		t.Fatal(err)
	}
	var motion []string
	for _, e := range sink.Events() {
		if e.Kind == "move" || e.Kind == "cut" {
			motion = append(motion, fmt.Sprintf("%s t=%d node %d value %d", e.Kind, e.At, e.Node, e.Value))
		}
	}
	want := []string{
		"move t=0 node 7 value 7",
		"cut t=3 node 4 value 4",
		"move t=4 node 1 value 3",
		"move t=7 node 7 value 6",
	}
	if !slices.Equal(motion, want) {
		t.Errorf("motion events %q, want %q", motion, want)
	}
	compareLegsHops(t, in, decisions, SimOptions{}, nil)
}

// Before a step's dispatch, an object whose leg passes a node at that
// step rests there, and a transaction executing there finds it, as
// under per-hop motion, where the object's arrival at that node was
// processed before the step's executions. Both transactions are decided
// at t=0 for t=2; transaction 0, at node 5, heads the object's users, so
// the object leaves node 0 for node 5 and passes node 2 at t=2.
// Transaction 1, at node 2, was decided first and so executes first: it
// commits, and transaction 0 then fails.
func TestPassingObjectRestsBeforeDispatch(t *testing.T) {
	in := lineInstance(t, 6, []*Object{{ID: 0, Origin: 0}}, []*Transaction{
		{ID: 0, Node: 5, Objects: []ObjID{0}},
		{ID: 1, Node: 2, Objects: []ObjID{0}},
	})
	decisions := []Decision{{Tx: 1, Exec: 2, At: 0}, {Tx: 0, Exec: 2, At: 0}}
	sink := &obs.SliceSink{}
	m := obs.New()
	m.SetSink(sink)
	_, err := Replay(in, decisions, SimOptions{}, m)
	var verr *ViolationError
	if !errors.As(err, &verr) || verr.Tx != 0 || verr.At != 2 || verr.Detail != "object at node 2, transaction at node 5" {
		t.Fatalf("replay error %v, want transaction 0 to find the object at node 2 at t=2", err)
	}
	if c := kinds(sink.Events(), "commit"); len(c) != 1 || c[0].Tx != 1 || c[0].At != 2 {
		t.Errorf("commits %+v, want transaction 1 at t=2", c)
	}
	compareLegsHops(t, in, decisions, SimOptions{}, nil)
}
