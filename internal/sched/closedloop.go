package sched

import (
	"fmt"
	"sort"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// ClosedLoopConfig describes the paper's exact transaction issuing process
// (Section III-C): every node holds one transaction at a time; one step
// after a node's transaction commits, the node issues its next one. The
// open-loop generators in internal/workload approximate this with fixed
// arrival processes; RunClosedLoop runs the real thing.
type ClosedLoopConfig struct {
	// Objects are the shared objects, created up front.
	Objects []*core.Object
	// Rounds is how many transactions each node issues in total.
	Rounds int
	// Gen produces the (sorted, deduplicated) object set for the given
	// node's round-r transaction. It must be deterministic.
	Gen func(node graph.NodeID, round int) []core.ObjID
}

// clWaiter is one in-flight closed-loop transaction: the stream watches it
// for execution to mint the node's next arrival.
type clWaiter struct {
	id   core.TxID
	node graph.NodeID
}

// closedLoopStream is the feedback arrivalStream: the next arrival of a
// node exists only once its previous transaction commits (one step
// later), so the drive loop also advances to internal sim events.
type closedLoopStream struct {
	gen    func(node graph.NodeID, round int) []core.ObjID
	rounds int
	round  []int      // next round to issue per node
	wait   []clWaiter // in-flight transactions, in issue order
	// pendIssue maps issue time -> nodes issuing then. issueQ holds the
	// node-sorted issuers currently being popped at time issueT.
	pendIssue map[core.Time][]graph.NodeID
	issueQ    []graph.NodeID
	issueT    core.Time
}

func (c *closedLoopStream) peek() (core.Time, bool) {
	if len(c.issueQ) > 0 {
		return c.issueT, true
	}
	first := true
	var min core.Time
	for t := range c.pendIssue {
		if first || t < min {
			min, first = t, false
		}
	}
	return min, !first
}

func (c *closedLoopStream) pop(id core.TxID) (*core.Transaction, error) {
	if len(c.issueQ) == 0 {
		t, ok := c.peek()
		if !ok {
			return nil, fmt.Errorf("sched: closed loop pop with nothing pending")
		}
		c.issueQ = c.pendIssue[t]
		c.issueT = t
		delete(c.pendIssue, t)
		sort.Slice(c.issueQ, func(i, j int) bool { return c.issueQ[i] < c.issueQ[j] })
	}
	v := c.issueQ[0]
	c.issueQ = c.issueQ[1:]
	tx := &core.Transaction{
		ID:      id,
		Node:    v,
		Arrival: c.issueT,
		Objects: c.gen(v, c.round[v]),
	}
	c.round[v]++
	c.wait = append(c.wait, clWaiter{id: id, node: v})
	return tx, nil
}

// observe scans the in-flight transactions in issue order: a node whose
// transaction executed issues its next one one step later (clamped to
// now, since the commit may be discovered late).
func (c *closedLoopStream) observe(sim *core.Sim) error {
	now := sim.Now()
	still := c.wait[:0]
	for _, w := range c.wait {
		if e, ok := sim.Executed(w.id); ok {
			if c.round[w.node] < c.rounds {
				at := e + 1
				if at < now {
					at = now
				}
				c.pendIssue[at] = append(c.pendIssue[at], w.node)
			}
		} else {
			still = append(still, w)
		}
	}
	c.wait = still
	return nil
}

func (c *closedLoopStream) exhausted() bool {
	return len(c.wait) == 0 && len(c.pendIssue) == 0 && len(c.issueQ) == 0
}

func (c *closedLoopStream) feedback() bool { return true }

// RunClosedLoop drives a scheduler under the closed-loop process — on the
// same drive core as the streaming driver, with arrivals coming from the
// commit-gated feedback stream — and returns the usual run result
// (snapshots taken at every distinct issue time) together with the
// instance that the process generated.
func RunClosedLoop(g *graph.Graph, cfg ClosedLoopConfig, s Scheduler, opts Options) (*RunResult, *core.Instance, error) {
	if cfg.Rounds < 1 {
		return nil, nil, fmt.Errorf("sched: closed loop needs Rounds >= 1")
	}
	if cfg.Gen == nil {
		return nil, nil, fmt.Errorf("sched: closed loop needs a Gen function")
	}
	nodes := g.N()
	in := &core.Instance{G: g, Objects: cfg.Objects}
	// Round 0: every node holds one transaction at t=0.
	for v := 0; v < nodes; v++ {
		in.Txns = append(in.Txns, &core.Transaction{
			ID:      core.TxID(v),
			Node:    graph.NodeID(v),
			Objects: cfg.Gen(graph.NodeID(v), 0),
		})
	}
	stream := &closedLoopStream{
		gen:       cfg.Gen,
		rounds:    cfg.Rounds,
		round:     make([]int, nodes),
		wait:      make([]clWaiter, 0, nodes),
		pendIssue: make(map[core.Time][]graph.NodeID),
	}
	for v := range stream.round {
		stream.round[v] = 1
		stream.wait = append(stream.wait, clWaiter{id: core.TxID(v), node: graph.NodeID(v)})
	}
	rr, err := run(in, s, stream, opts, "/closed-loop")
	if rr == nil {
		return nil, nil, err
	}
	return rr, in, err
}
