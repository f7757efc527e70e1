package lowerbound

import (
	"slices"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// Tracker maintains Estimate's value over a live set that changes by
// single transactions, as a driver's ratio snapshots see it: transactions
// join when they arrive and leave once they have executed. It computes the
// traversal bound only (the assembly bound never decides, see the package
// doc) and keeps, per object, what a snapshot would otherwise rebuild:
//
//   - the distinct live requester nodes, with how many live transactions
//     sit at each;
//   - their graph.MST;
//   - the last availability node asked about, and the MST weight with it.
//
// A new requester node is inserted into the tree (graph.MSTBuilder.Insert);
// a departed node drops the tree, which the next Estimate rebuilds with
// one Build. The availability node is weighed without keeping a tree (a
// node already in the set adds nothing), and the answer is kept until the
// node or the requester set changes.
//
// Distances are the graph's shortest paths, so the graph must be
// connected, as every simulated instance's is. A Tracker is not safe for
// concurrent use.
type Tracker struct {
	objs   []objTree    // indexed by ObjID, grown on demand
	active []core.ObjID // objects with at least one live requester
	mst    *graph.MSTBuilder
}

// objTree is one object's share of the live set.
type objTree struct {
	nodes []graph.NodeID // distinct live requester nodes
	count []int32        // live requesters at nodes[i]
	slot  int32          // index into Tracker.active, -1 when inactive
	// tree is the MST over nodes[:built]; a departed node resets built
	// to 0, which marks it stale.
	built int
	tree  graph.MST
	// with is the MST weight over nodes plus availNode, valid while
	// withOK.
	availNode graph.NodeID
	with      graph.Weight
	withOK    bool
}

// NewTracker returns an empty tracker over g.
func NewTracker(g *graph.Graph) *Tracker {
	return &Tracker{mst: graph.NewMSTBuilder(g)}
}

// Add puts tx in the live set.
func (t *Tracker) Add(tx *core.Transaction) {
	for _, o := range tx.Objects {
		for int(o) >= len(t.objs) {
			t.objs = append(t.objs, objTree{slot: -1})
		}
		ot := &t.objs[o]
		if i := slices.Index(ot.nodes, tx.Node); i >= 0 {
			ot.count[i]++
			continue
		}
		ot.nodes = append(ot.nodes, tx.Node)
		ot.count = append(ot.count, 1)
		ot.withOK = false
		if ot.slot < 0 {
			ot.slot = int32(len(t.active))
			t.active = append(t.active, o)
		}
	}
}

// Remove takes tx, which must be in the live set, out of it.
func (t *Tracker) Remove(tx *core.Transaction) {
	for _, o := range tx.Objects {
		ot := &t.objs[o]
		i := slices.Index(ot.nodes, tx.Node)
		if ot.count[i]--; ot.count[i] > 0 {
			continue
		}
		last := len(ot.nodes) - 1
		ot.nodes[i], ot.count[i] = ot.nodes[last], ot.count[last]
		ot.nodes, ot.count = ot.nodes[:last], ot.count[:last]
		ot.built, ot.withOK = 0, false
		if last == 0 {
			moved := t.active[len(t.active)-1]
			t.objs[moved].slot = ot.slot
			t.active[ot.slot] = moved
			t.active = t.active[:len(t.active)-1]
			ot.slot = -1
		}
	}
}

// Estimate returns Estimate(Input{G, now, live set, avail}) for the
// tracked live set, where avail gives each requested object's
// availability at now.
func (t *Tracker) Estimate(now core.Time, avail func(core.ObjID) Avail) core.Time {
	best := core.Time(1)
	for _, o := range t.active {
		ot := &t.objs[o]
		a := avail(o)
		if ot.built == 0 {
			t.mst.Build(&ot.tree, ot.nodes)
			ot.built = len(ot.nodes)
		}
		for ; ot.built < len(ot.nodes); ot.built++ {
			t.mst.Insert(&ot.tree, ot.nodes[ot.built])
		}
		if !ot.withOK || ot.availNode != a.Node {
			ot.availNode, ot.with, ot.withOK = a.Node, t.mst.WeightWith(&ot.tree, a.Node), true
		}
		lb := core.Time(ot.with)
		if a.Free > now {
			lb += a.Free - now
		}
		if lb > best {
			best = lb
		}
	}
	return best
}
