// Package trace serializes finished scheduling runs so they can be stored,
// inspected, and independently re-validated: a trace carries the instance
// shape, the scheduler's full decision log, and the measured metrics, and
// Validate replays the decisions through the core engine to confirm the
// recorded schedule is feasible.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/sched"
)

// ObjectRecord is an object's serialized form.
type ObjectRecord struct {
	Origin  graph.NodeID `json:"origin"`
	Created core.Time    `json:"created,omitempty"`
}

// TxRecord is a transaction's serialized form.
type TxRecord struct {
	Node    graph.NodeID `json:"node"`
	Arrival core.Time    `json:"arrival,omitempty"`
	Objects []core.ObjID `json:"objects"`
}

// EdgeRecord is a graph edge's serialized form.
type EdgeRecord struct {
	U graph.NodeID `json:"u"`
	V graph.NodeID `json:"v"`
	W graph.Weight `json:"w"`
}

// Run is a complete, self-contained record of one scheduling run.
type Run struct {
	Topology  string          `json:"topology"`
	Nodes     int             `json:"nodes"`
	Edges     []EdgeRecord    `json:"edges"`
	Objects   []ObjectRecord  `json:"objects"`
	Txns      []TxRecord      `json:"txns"`
	Scheduler string          `json:"scheduler"`
	SlowObj   int             `json:"slowObjects,omitempty"`
	Decisions []core.Decision `json:"decisions"`
	// Abandoned lists transactions the run explicitly gave up on (degraded
	// runs under an injected fault plan); Validate accepts them unexecuted.
	Abandoned []core.TxID  `json:"abandoned,omitempty"`
	Makespan  core.Time    `json:"makespan"`
	MaxLat    core.Time    `json:"maxLatency"`
	TotalComm graph.Weight `json:"totalComm"`
	MaxRatio  float64      `json:"maxRatio"`
}

// Capture builds a Run record from an instance and its finished result,
// at the object speed the run used.
func Capture(in *core.Instance, rr *sched.RunResult) *Run {
	r := &Run{
		Topology:  in.G.Name(),
		Nodes:     in.G.N(),
		Scheduler: rr.Scheduler,
		SlowObj:   rr.SlowFactor,
		Decisions: rr.Decisions,
		Abandoned: rr.Abandoned,
		Makespan:  rr.Makespan,
		MaxLat:    rr.MaxLat,
		TotalComm: rr.TotalComm,
		MaxRatio:  rr.MaxRatio,
	}
	for u := 0; u < in.G.N(); u++ {
		for _, e := range in.G.Neighbors(graph.NodeID(u)) {
			if graph.NodeID(u) < e.To {
				r.Edges = append(r.Edges, EdgeRecord{U: graph.NodeID(u), V: e.To, W: e.W})
			}
		}
	}
	for _, o := range in.Objects {
		r.Objects = append(r.Objects, ObjectRecord{Origin: o.Origin, Created: o.Created})
	}
	for _, tx := range in.Txns {
		r.Txns = append(r.Txns, TxRecord{Node: tx.Node, Arrival: tx.Arrival, Objects: tx.Objects})
	}
	return r
}

// Instance reconstructs the core instance the trace was captured from.
func (r *Run) Instance() (*core.Instance, error) {
	// A valid instance's graph is connected, so it has at least Nodes-1
	// edges. Refusing a larger count before graph.New keeps a corrupt
	// node count from reaching the allocation.
	if r.Nodes > len(r.Edges)+1 {
		return nil, fmt.Errorf("trace: %d nodes cannot be connected by %d edges", r.Nodes, len(r.Edges))
	}
	links := make([]graph.Link, len(r.Edges))
	for i, e := range r.Edges {
		links[i] = graph.Link(e)
	}
	g, err := graph.New(r.Nodes, links)
	if err != nil {
		return nil, err
	}
	g.SetName(r.Topology)
	in := &core.Instance{G: g}
	for i, o := range r.Objects {
		in.Objects = append(in.Objects, &core.Object{ID: core.ObjID(i), Origin: o.Origin, Created: o.Created})
	}
	for i, t := range r.Txns {
		in.Txns = append(in.Txns, &core.Transaction{ID: core.TxID(i), Node: t.Node, Arrival: t.Arrival, Objects: t.Objects})
	}
	return in, in.Validate()
}

// Validate replays the recorded decisions through the core engine and
// checks that the recorded makespan matches. Runs with abandoned
// transactions validate iff exactly the abandoned set went unexecuted.
// A trace the engine cannot even start on (a negative slow factor, or one
// whose travel times would wrap) is malformed, not infeasible.
func (r *Run) Validate() error {
	in, err := r.Instance()
	if err != nil {
		return err
	}
	res, err := core.ReplayAbandoned(in, r.Decisions, r.Abandoned, core.SimOptions{SlowFactor: r.SlowObj}, nil)
	if res == nil {
		return fmt.Errorf("trace: malformed run: %w", err)
	}
	if err != nil {
		return fmt.Errorf("trace: recorded schedule is infeasible: %w", err)
	}
	if res.Makespan != r.Makespan {
		return fmt.Errorf("trace: replay makespan %d differs from recorded %d", res.Makespan, r.Makespan)
	}
	return nil
}

// Write serializes the run as indented JSON.
func (r *Run) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Read parses a serialized run.
func Read(rd io.Reader) (*Run, error) {
	var r Run
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return &r, nil
}
