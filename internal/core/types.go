// Package core implements the data-flow model of distributed transactional
// memory from Busch et al. (IPPS 2020), Section II: transactions reside at
// nodes of a weighted communication graph, shared objects are mobile, and a
// transaction executes (instantly) at the step it has assembled all the
// objects it requests.
//
// The package's Sim type is the authoritative semantics of the model: it
// replays scheduling decisions, moves objects along shortest paths in
// legs, one arrival event per stretch of travel toward one target node
// (re-targeting only at node boundaries, which realizes the paper's
// "artificial node on the current edge" device: a new target cuts a leg
// at the end of the hop in progress), and fails if any transaction lacks
// an object at its scheduled execution step. Positions stay hop-level: a
// query finds the hop in progress on the object's leg. Every scheduler in
// this repository is validated against it.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"dtm/internal/graph"
)

// Time is a discrete synchronous time step (Section II).
type Time int64

// TxID identifies a transaction within an Instance (dense, 0-based).
type TxID int

// ObjID identifies a shared object within an Instance (dense, 0-based).
type ObjID int

// Object is a mobile shared object. It exists at node Origin from time
// Created and thereafter moves to the transactions that request it.
type Object struct {
	ID      ObjID
	Origin  graph.NodeID
	Created Time
}

// Transaction is an atomic block pinned to a node. It is generated at time
// Arrival and requests the objects in Objects (read/write is not
// distinguished: the paper treats any overlap of object sets as a conflict).
type Transaction struct {
	ID      TxID
	Node    graph.NodeID
	Arrival Time
	Objects []ObjID
}

// Conflicts reports whether two transactions share at least one object.
// Object slices must be sorted (Instance.Validate enforces this).
func (t *Transaction) Conflicts(u *Transaction) bool {
	i, j := 0, 0
	for i < len(t.Objects) && j < len(u.Objects) {
		switch {
		case t.Objects[i] == u.Objects[j]:
			return true
		case t.Objects[i] < u.Objects[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Instance is a complete dynamic scheduling problem: a communication graph,
// the shared objects, and the transactions with their arrival times.
type Instance struct {
	G       *graph.Graph
	Objects []*Object      // indexed by ObjID
	Txns    []*Transaction // indexed by TxID
}

// Validate checks internal consistency: dense IDs, in-range nodes, sorted
// and deduplicated object lists, non-empty requests, non-negative times,
// and a connected graph.
func (in *Instance) Validate() error {
	if in.G == nil {
		return fmt.Errorf("core: instance has no graph")
	}
	if !in.G.Connected() {
		return fmt.Errorf("core: communication graph is disconnected")
	}
	n := graph.NodeID(in.G.N())
	for i, o := range in.Objects {
		if o == nil {
			return fmt.Errorf("core: object %d is nil", i)
		}
		if o.ID != ObjID(i) {
			return fmt.Errorf("core: object at index %d has ID %d", i, o.ID)
		}
		if o.Origin < 0 || o.Origin >= n {
			return fmt.Errorf("core: object %d origin %d out of range", i, o.Origin)
		}
		if o.Created < 0 {
			return fmt.Errorf("core: object %d created at negative time %d", i, o.Created)
		}
	}
	for i, t := range in.Txns {
		if t == nil {
			return fmt.Errorf("core: transaction %d is nil", i)
		}
		if t.ID != TxID(i) {
			return fmt.Errorf("core: transaction at index %d has ID %d", i, t.ID)
		}
		if t.Arrival < 0 {
			return fmt.Errorf("core: transaction %d arrives at negative time %d", i, t.Arrival)
		}
		if err := in.checkTx(t); err != nil {
			return fmt.Errorf("core: transaction %d: %w", i, err)
		}
	}
	return nil
}

// checkTx is the one rule for a well-formed transaction of in, shared by
// Validate and Sim.AddTransaction: its node in range, at least one
// object, its objects sorted and deduplicated, and every object known.
// Its ID and arrival time are the callers' to check.
func (in *Instance) checkTx(t *Transaction) error {
	if t.Node < 0 || int(t.Node) >= in.G.N() {
		return fmt.Errorf("node %d out of range", t.Node)
	}
	if len(t.Objects) == 0 {
		return fmt.Errorf("no objects")
	}
	for j, o := range t.Objects {
		if o < 0 || int(o) >= len(in.Objects) {
			return fmt.Errorf("unknown object %d", o)
		}
		if j > 0 && t.Objects[j-1] >= o {
			return fmt.Errorf("object list not sorted and deduplicated at object %d", o)
		}
	}
	return nil
}

// NormalizeObjects sorts and deduplicates a transaction object list in
// place, returning the normalized slice. Workload generators use it so that
// Instance.Validate's sortedness contract always holds.
func NormalizeObjects(objs []ObjID) []ObjID {
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	out := objs[:0]
	for i, o := range objs {
		if i == 0 || objs[i-1] != o {
			out = append(out, o)
		}
	}
	return out
}

// ArrivalGroups splits the transactions by arrival time: times holds the
// distinct arrival times in ascending order, and groups[i] the
// transactions arriving at times[i], in ID order. One stable sort of a
// copy of Txns builds every group. Each group is a capped view of that
// copy, so appending to one copies it rather than writing into the next.
func (in *Instance) ArrivalGroups() (times []Time, groups [][]*Transaction) {
	sorted := slices.Clone(in.Txns)
	slices.SortStableFunc(sorted, func(a, b *Transaction) int { return cmp.Compare(a.Arrival, b.Arrival) })
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j].Arrival == sorted[i].Arrival {
			j++
		}
		times = append(times, sorted[i].Arrival)
		groups = append(groups, sorted[i:j:j])
		i = j
	}
	return times, groups
}

// Requesters returns, for every object, the IDs of transactions requesting
// it, in transaction-ID order.
func (in *Instance) Requesters() map[ObjID][]TxID {
	req := make(map[ObjID][]TxID)
	for _, tx := range in.Txns {
		for _, o := range tx.Objects {
			req[o] = append(req[o], tx.ID)
		}
	}
	return req
}
