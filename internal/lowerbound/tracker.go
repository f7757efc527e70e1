package lowerbound

import (
	"slices"
	"sort"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/pq"
)

// Tracker maintains Estimate's value over a live set that changes by
// single transactions, as a driver's ratio snapshots see it: transactions
// join when they arrive and leave once they have executed. It keeps, per
// object:
//
//   - the graph.MST over the distinct live requester nodes, exact after
//     every Add and Remove (graph.MSTBuilder.Insert and Delete), with how
//     many live transactions sit at each of its points;
//   - the last availability node weighed exactly, the MST weight with it,
//     and the tree point nearest it.
//
// Estimate is bound-first. An object whose availability node is the one
// last weighed, with the requester set unchanged since, contributes its
// kept answer. Any other contributes at most W + d(a, near) + wait, for
// the tree's weight W and its point near: the tree plus the edge from
// the availability node a to near spans every point. Only objects whose
// bound exceeds the maximum so far are weighed exactly
// (graph.MSTBuilder.WeightWith), highest bound first, so an object whose
// bound does not reach the maximum cannot change it and the result is
// Estimate's exactly.
//
// Distances are the graph's shortest paths, so the graph must be
// connected, as every simulated instance's is. A Tracker is not safe for
// concurrent use.
type Tracker struct {
	g      *graph.Graph
	objs   []objTree    // indexed by ObjID, grown on demand
	active []core.ObjID // objects with at least one live requester
	mst    *graph.MSTBuilder
	// stale holds Estimate's objects without a kept answer whose bound
	// exceeded the maximum when they were reached, highest bound first.
	stale pq.Heap[staleObj]
}

// objTree is one object's share of the live set.
type objTree struct {
	tree  graph.MST // over the distinct live requester nodes
	count []int32   // live requesters at tree.Node(i)
	slot  int32     // index into Tracker.active, -1 when inactive
	// with is the MST weight over the tree's points plus availNode,
	// valid while withOK.
	availNode graph.NodeID
	with      graph.Weight
	withOK    bool
	// near is the tree point nearest the availability node last weighed
	// exactly, or point 0 once that point leaves the tree.
	near graph.NodeID
}

// staleObj is an object whose kept answer does not apply at this
// snapshot, with its bound.
type staleObj struct {
	bound, wait core.Time
	node        graph.NodeID // availability node
	obj         core.ObjID
}

func higherBound(x, y staleObj) bool { return x.bound > y.bound }

// NewTracker returns an empty tracker over g.
func NewTracker(g *graph.Graph) *Tracker {
	return &Tracker{g: g, mst: graph.NewMSTBuilder(g)}
}

// find returns the index of node v among the tree's points, or where it
// would go.
func (ot *objTree) find(v graph.NodeID) int {
	return sort.Search(ot.tree.Len(), func(i int) bool { return ot.tree.Node(i) >= v })
}

// Add puts tx in the live set.
func (t *Tracker) Add(tx *core.Transaction) {
	for _, o := range tx.Objects {
		for int(o) >= len(t.objs) {
			t.objs = append(t.objs, objTree{slot: -1})
		}
		ot := &t.objs[o]
		i := ot.find(tx.Node)
		if i < ot.tree.Len() && ot.tree.Node(i) == tx.Node {
			ot.count[i]++
			continue
		}
		if ot.slot < 0 {
			ot.slot = int32(len(t.active))
			t.active = append(t.active, o)
			ot.near = tx.Node
		}
		t.mst.Insert(&ot.tree, tx.Node)
		ot.count = slices.Insert(ot.count, i, 1)
		ot.withOK = false
	}
}

// Remove takes tx, which must be in the live set, out of it.
func (t *Tracker) Remove(tx *core.Transaction) {
	for _, o := range tx.Objects {
		ot := &t.objs[o]
		i := ot.find(tx.Node)
		if ot.count[i]--; ot.count[i] > 0 {
			continue
		}
		t.mst.Delete(&ot.tree, tx.Node)
		ot.count = slices.Delete(ot.count, i, i+1)
		ot.withOK = false
		switch {
		case ot.tree.Len() == 0:
			moved := t.active[len(t.active)-1]
			t.objs[moved].slot = ot.slot
			t.active[ot.slot] = moved
			t.active = t.active[:len(t.active)-1]
			ot.slot = -1
		case ot.near == tx.Node:
			ot.near = ot.tree.Node(0)
		}
	}
}

// Estimate returns Estimate(Input{G, now, live set, avail}) for the
// tracked live set, where avail gives each requested object's
// availability at now.
func (t *Tracker) Estimate(now core.Time, avail func(core.ObjID) Avail) core.Time {
	best := core.Time(1)
	t.stale.Init(higherBound)
	for _, o := range t.active {
		ot := &t.objs[o]
		a := avail(o)
		var wait core.Time
		if a.Free > now {
			wait = a.Free - now
		}
		if ot.withOK && ot.availNode == a.Node {
			best = max(best, core.Time(ot.with)+wait)
			continue
		}
		if bound := core.Time(ot.tree.Weight()+t.g.Dist(a.Node, ot.near)) + wait; bound > best {
			t.stale.Push(staleObj{bound: bound, wait: wait, node: a.Node, obj: o})
		}
	}
	for t.stale.Len() > 0 && t.stale.Peek().bound > best {
		s := t.stale.Pop()
		best = max(best, core.Time(t.weigh(&t.objs[s.obj], s.node))+s.wait)
	}
	return best
}

// weigh returns the MST weight over ot's tree and node a, keeping it as
// ot's answer, and moves ot.near to the tree point nearest a.
func (t *Tracker) weigh(ot *objTree, a graph.NodeID) graph.Weight {
	ot.availNode, ot.with, ot.withOK = a, t.mst.WeightWith(&ot.tree, a), true
	d := t.g.Dist(a, ot.near)
	for i := range ot.tree.Len() {
		if di := t.g.Dist(a, ot.tree.Node(i)); di < d {
			ot.near, d = ot.tree.Node(i), di
		}
	}
	return ot.with
}
