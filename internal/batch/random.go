package batch

import (
	"math/rand"

	"dtm/internal/core"
)

// Randomized is a randomized batch scheduler in the spirit of the
// SPAA 2017 cluster/star algorithms the paper converts (Section IV-D notes
// they are randomized): it runs list scheduling under several random
// transaction priority orders and keeps the best. Deterministic for a
// given Seed.
type Randomized struct {
	Seed  int64
	Tries int // candidate orders per Schedule call; 0 means 4
}

// Name implements Scheduler.
func (r Randomized) Name() string { return "random-batch" }

// Schedule implements Scheduler.
func (r Randomized) Schedule(p *Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	tries := r.Tries
	if tries <= 0 {
		tries = 4
	}
	rng := rand.New(rand.NewSource(r.Seed))
	var best Assignment
	for t := 0; t < tries; t++ {
		order := append([]*core.Transaction(nil), p.Txns...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		asgn := listInOrder(p, order)
		if best == nil || asgn.Makespan(p.Now) < best.Makespan(p.Now) {
			best = asgn
		}
	}
	return best, nil
}

// listInOrder is list scheduling with a fixed priority order: each
// transaction, in order, gets the earliest time its objects can reach it,
// threading availability forward. Always feasible (per-object chains are
// constructed in assignment order with exact travel floors).
func listInOrder(p *Problem, order []*core.Transaction) Assignment {
	avail := ownAvail(p, order)
	slow := core.Time(p.slow())
	out := make(Assignment, len(order))
	for _, tx := range order {
		e := p.Now
		if tx.Arrival > e {
			e = tx.Arrival
		}
		for _, o := range tx.Objects {
			a := avail[o]
			if t := a.Free + core.Time(p.G.Dist(a.Node, tx.Node))*slow; t > e {
				e = t
			}
		}
		out[tx.ID] = e
		for _, o := range tx.Objects {
			avail[o] = Avail{Node: tx.Node, Free: e}
		}
	}
	return out
}
