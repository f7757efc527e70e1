package batch

import (
	"slices"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// Tour is the geometric offline batch scheduler: within each conflict
// component it builds a minimum spanning tree of the metric closure over
// the involved nodes (transaction nodes plus object availability nodes),
// shortcuts its Euler tour into a preorder node sequence, and assigns
// execution times along the tour's prefix distances. Objects then simply
// follow the tour.
//
// Properties: the schedule is feasible (consecutive requesters of an object
// appear in tour order, and the tour-prefix gap dominates their direct
// distance by the triangle inequality); its per-component makespan is
// wait + 2 * tourLength <= wait + 4 * MST, while any schedule needs at
// least max over objects of that object's requester-MST — so Tour is
// near-optimal whenever one object's span dominates its component, which is
// the regime of the line/cluster/star experiments. On the line it
// degenerates to the left-to-right sweep; globally it is also the TSP-tour
// strategy of Zhang et al. (SIROCCO 2014), used as a baseline.
type Tour struct{}

// Name implements Scheduler.
func (Tour) Name() string { return "tour-batch" }

// Schedule implements Scheduler.
func (Tour) Schedule(p *Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make(Assignment, len(p.Txns))
	mst := graph.NewMSTBuilder(p.G)
	var sc preorderScratch
	for _, comp := range components(p) {
		scheduleComponent(p, comp, mst, &sc, out)
	}
	return out, nil
}

func scheduleComponent(p *Problem, comp []*core.Transaction, mst *graph.MSTBuilder, sc *preorderScratch, out Assignment) {
	// Node set: transaction nodes + availability nodes (Build drops the
	// repeats); longest wait.
	var nodes []graph.NodeID
	var wait core.Time
	for _, tx := range comp {
		nodes = append(nodes, tx.Node)
		for _, o := range tx.Objects {
			a := p.Avail[o]
			nodes = append(nodes, a.Node)
			if w := a.Free - p.Now; w > wait {
				wait = w
			}
		}
	}
	var tree graph.MST
	mst.Build(&tree, nodes)
	order, prefix := sc.preorder(p.G, &tree)
	pos := make(map[graph.NodeID]core.Time, len(order))
	slow := core.Time(p.slow())
	for i, v := range order {
		pos[v] = prefix[i] * slow
	}
	tourLen := prefix[len(prefix)-1] * slow
	start := p.Now + wait + tourLen

	// Uniform shift if any transaction's floor exceeds its tour slot
	// (late arrivals); shifting everything preserves all gaps.
	var shift core.Time
	for _, tx := range comp {
		slot := start + pos[tx.Node]
		if f := floor(p, tx); f > slot && f-slot > shift {
			shift = f - slot
		}
	}
	for _, tx := range comp {
		out[tx.ID] = start + shift + pos[tx.Node]
	}
}

// preorderScratch holds the reusable buffers of preorder.
type preorderScratch struct {
	head, next, stack []int32
}

// preorder returns the preorder tour of t, the tree's points visited
// depth first from its root (the smallest node) with children in
// ascending node order, and the cumulative metric distances along it.
// The tour depends only on the tree's edge set and node IDs, so the
// fresh Build path and the session's grown trees give byte-identical
// tours. The shortcut tour's length is at most twice the tree's weight.
func (sc *preorderScratch) preorder(g *graph.Graph, t *graph.MST) ([]graph.NodeID, []core.Time) {
	n := t.Len()
	// Child lists, each in descending node order (points are sorted by
	// node), so the stack pops the smallest child first.
	head := slices.Grow(sc.head[:0], n)[:n]
	next := slices.Grow(sc.next[:0], n)[:n]
	for i := range head {
		head[i] = -1
	}
	for i := 1; i < n; i++ {
		up := t.Parent(i)
		next[i], head[up] = head[up], int32(i)
	}
	order := make([]graph.NodeID, 0, n)
	stack := append(sc.stack[:0], 0)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		order = append(order, t.Node(int(v)))
		for c := head[v]; c >= 0; c = next[c] {
			stack = append(stack, c)
		}
	}
	sc.head, sc.next, sc.stack = head, next, stack
	prefix := make([]core.Time, 1, n)
	for i := 1; i < n; i++ {
		prefix = append(prefix, prefix[i-1]+core.Time(g.Dist(order[i-1], order[i])))
	}
	return order, prefix
}
