// Package batch provides the offline batch scheduling substrate consumed by
// the online bucket conversion (Algorithm 2 of Busch et al., IPPS 2020).
//
// The paper converts the batch schedulers of Busch et al. (SPAA 2017) — whose
// pseudo-code is not reproduced in the IPPS paper — into online schedulers.
// Algorithm 2 treats the batch scheduler as a black box, needing only
// (a) valid batch schedules that respect already-fixed decisions, folded in
// here as per-object availability constraints (the paper's first basic
// modification of A, Section IV-A), and (b) the makespan oracle F_A.
// This package therefore supplies reconstructions with the right asymptotic
// shape on the paper's topologies (see DESIGN.md §2):
//
//   - Coloring: the offline analogue of the online greedy schedule — a
//     weighted coloring of the conflict graph with availability floors.
//     Works on any graph; near-optimal on low-diameter graphs (clique,
//     hypercube).
//   - Tour: per conflict component, an Euler-tour of the metric-closure MST
//     over the involved nodes; execution times follow tour prefix
//     distances. Works on any graph; on the line it degenerates to the
//     left-to-right sweep, and it doubles as the TSP-tour baseline of
//     Zhang et al. (SIROCCO 2014) that the paper cites as a comparator.
package batch

import (
	"fmt"
	"sort"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// Avail says object o is free for the batch at node Node from absolute time
// Free (already-scheduled users and physical travel folded in).
type Avail struct {
	Node graph.NodeID
	Free core.Time
}

// Problem is a batch scheduling problem: assign execution times >= Now to
// Txns, respecting object availability.
type Problem struct {
	G     *graph.Graph
	Now   core.Time
	Txns  []*core.Transaction
	Avail map[core.ObjID]Avail
	// Slow multiplies object travel time per unit distance (the Section V
	// protocol halves object speed, Slow = 2). Zero means 1.
	Slow graph.Weight
	// availGen counts SetAvail's overwrites. A session keeps the state it
	// derives from entries only while the generation it was built in is
	// current.
	availGen int64
}

// SetAvail overwrites object o's availability entry with a, and moves the
// generation the sessions over p compare their entry-derived state with.
// Adding an entry for an object that has none needs no call: a caller
// may write it into Avail directly, as ExtendAvail does.
func (p *Problem) SetAvail(o core.ObjID, a Avail) {
	p.Avail[o] = a
	p.availGen++
}

func (p *Problem) slow() graph.Weight {
	if p.Slow <= 0 {
		return 1
	}
	return p.Slow
}

// Validate checks the problem is self-consistent.
func (p *Problem) Validate() error {
	if err := p.checkGraph(); err != nil {
		return err
	}
	for _, tx := range p.Txns {
		for _, o := range tx.Objects {
			if _, ok := p.Avail[o]; !ok {
				return fmt.Errorf("batch: no availability for object %d (transaction %d)", o, tx.ID)
			}
		}
	}
	return nil
}

// checkGraph refuses a missing or disconnected graph: the schedulers add
// distances between any two nodes, and an unreachable pair's Infinite
// distance would wrap their times. It costs O(N) once the shortest-path
// tree of node 0 is built, so the native sessions make it once, when
// they begin, and report it at every evaluation.
func (p *Problem) checkGraph() error {
	if p.G == nil {
		return fmt.Errorf("batch: problem has no graph")
	}
	if !p.G.Connected() {
		return fmt.Errorf("batch: %v is disconnected", p.G)
	}
	return nil
}

// Assignment maps transactions to execution times.
type Assignment map[core.TxID]core.Time

// Makespan returns the duration of the assignment relative to p.Now — the
// F_A(X) of Section IV-A.
func (a Assignment) Makespan(now core.Time) core.Time {
	var max core.Time
	for _, t := range a {
		if t-now > max {
			max = t - now
		}
	}
	return max
}

// Scheduler is an offline batch scheduling algorithm A.
type Scheduler interface {
	Name() string
	// Schedule assigns every transaction tx in p.Txns an execution time
	// at or after p.Floor(tx): not before p.Now or tx's arrival, and not
	// before each of tx's objects can reach it. So F_A of a batch that
	// holds tx is at least p.Floor(tx) − p.Now, the bound bucket.Place
	// reads to skip the levels tx cannot fit.
	Schedule(p *Problem) (Assignment, error)
}

// Cost runs the scheduler and returns F_A (the batch duration), the value
// the bucket insertion rule compares against 2^i.
func Cost(s Scheduler, p *Problem) (core.Time, error) {
	a, err := s.Schedule(p)
	if err != nil {
		return 0, err
	}
	return a.Makespan(p.Now), nil
}

// Floor returns the earliest time tx can execute: not before Now or its
// arrival, and not before each of its objects can travel, at the
// problem's object speed, from its availability point to tx's node. No
// valid schedule runs tx earlier (see Scheduler). It verifies each of
// tx's objects has an entry where it reads it, failing with the error
// Validate would give, so the sessions, which never materialize p.Txns,
// can skip the up-front Validate.
func (p *Problem) Floor(tx *core.Transaction) (core.Time, error) {
	for _, o := range tx.Objects {
		if _, ok := p.Avail[o]; !ok {
			return 0, fmt.Errorf("batch: no availability for object %d (transaction %d)", o, tx.ID)
		}
	}
	return floor(p, tx), nil
}

// floor is Floor for a problem already validated.
func floor(p *Problem, tx *core.Transaction) core.Time {
	f := p.Now
	if tx.Arrival > f {
		f = tx.Arrival
	}
	for _, o := range tx.Objects {
		a := p.Avail[o]
		free := a.Free
		if free < p.Now {
			free = p.Now
		}
		if t := free + core.Time(p.G.Dist(a.Node, tx.Node)*p.slow()); t > f {
			f = t
		}
	}
	return f
}

// components groups the problem's transactions into conflict components
// (connected components of the share-an-object relation).
func components(p *Problem) [][]*core.Transaction {
	parent := make([]int, len(p.Txns))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(a)] = find(b) }
	firstUser := make(map[core.ObjID]int)
	for i, tx := range p.Txns {
		for _, o := range tx.Objects {
			if j, ok := firstUser[o]; ok {
				union(i, j)
			} else {
				firstUser[o] = i
			}
		}
	}
	groups := make(map[int][]*core.Transaction)
	var roots []int
	for i, tx := range p.Txns {
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], tx)
	}
	sort.Ints(roots)
	out := make([][]*core.Transaction, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}
