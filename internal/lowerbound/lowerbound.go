// Package lowerbound computes lower bounds on the optimal offline makespan
// t* of Definition 1 in Busch et al. (IPPS 2020). Computing t* exactly is
// NP-hard (even to approximate within a sub-linear factor, by the reduction
// from vertex coloring the paper cites), so the repository's empirical
// competitive ratios divide by these bounds instead: because LB <= t*, a
// measured ratio latency/LB over-estimates the true ratio, which keeps
// scaling conclusions conservative.
//
// For each object o requested by a live transaction, the bound is
//
//	wait(o) + MST(o),
//
// where wait(o) is how long o stays busy past Now and MST(o) is the
// weight of a minimum spanning tree of the metric closure over o's
// availability node and its live requesters' nodes. o must visit every
// one of those nodes, and any such walk weighs at least the tree. On the
// clique, with unit distances, MST(o) is l - 1 for l distinct points:
// the paper's l_max serialization argument. The result is the largest
// term over the objects, clamped to 1 to keep ratios finite (a schedule
// that executes everything instantly yields latency 0 and ratio 0
// anyway).
//
// No separate per-transaction term is needed. A transaction T cannot
// execute before each of its objects reaches it, so t* >= wait(o) +
// dist(pos(o), node(T)); but node(T) is one of the points MST(o) spans,
// and the tree's path from pos(o) to node(T) is at least
// dist(pos(o), node(T)), so that term never exceeds o's. Estimate
// computes the bound from scratch and is the reference. Tracker keeps
// each object's requester tree exact across the snapshots of a run and
// returns the same value, weighing exactly only the objects whose upper
// bound could set the maximum.
package lowerbound

import (
	"dtm/internal/core"
	"dtm/internal/graph"
)

// Avail describes when and where an object becomes available to the live
// transactions under consideration: either its current position (free now),
// the node it is in transit to (free on arrival), or the node and execution
// time of its last already-scheduled user.
type Avail struct {
	Node graph.NodeID
	Free core.Time // absolute time; clamp to "now" if in the past
}

// Input is a snapshot of the live scheduling state at time Now.
type Input struct {
	G     *graph.Graph
	Now   core.Time
	Txns  []*core.Transaction // live (unexecuted) transactions
	Avail map[core.ObjID]Avail
}

// Estimate returns a lower bound on the optimal duration (relative to
// Input.Now) needed to execute all live transactions, at least 1.
func Estimate(in Input) core.Time {
	best := core.Time(1)
	// Requesters per object, restricted to the live set.
	reqNodes := make(map[core.ObjID][]graph.NodeID)
	for _, tx := range in.Txns {
		for _, o := range tx.Objects {
			reqNodes[o] = append(reqNodes[o], tx.Node)
		}
	}
	for o, nodes := range reqNodes {
		a, ok := in.Avail[o]
		if !ok {
			continue
		}
		wait := max(a.Free-in.Now, 0)
		pts := append([]graph.NodeID{a.Node}, nodes...)
		best = max(best, wait+core.Time(in.G.MetricMST(pts)))
	}
	return best
}

// SnapshotAvail builds the Avail map for the given live transactions from a
// running simulation, one AvailOf entry per requested object.
func SnapshotAvail(s *core.Sim, txns []*core.Transaction) map[core.ObjID]Avail {
	avail := make(map[core.ObjID]Avail)
	for _, tx := range txns {
		for _, o := range tx.Objects {
			if _, ok := avail[o]; !ok {
				avail[o] = AvailOf(s, o)
			}
		}
	}
	return avail
}

// AvailOf returns object o's availability in a running simulation using
// *physical* positions only: the node the object sits at (free now), the
// endpoint of its current edge if in transit (mid-edge motion is a
// physical commitment even for OPT), or its origin and creation time if it
// does not exist yet. Schedule-induced constraints are deliberately
// excluded — the optimal scheduler in the competitive-ratio denominator
// may route objects differently than ours did, so only physics may
// constrain it.
func AvailOf(s *core.Sim, o core.ObjID) Avail {
	if obj := s.Instance().Objects[o]; obj.Created > s.Now() {
		return Avail{Node: obj.Origin, Free: obj.Created}
	}
	loc := s.ObjectLocation(o)
	if loc.InTransit {
		return Avail{Node: loc.Next, Free: loc.Arrive}
	}
	return Avail{Node: loc.Node, Free: s.Now()}
}
