package batch

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"dtm/internal/core"
)

// Randomized is a randomized batch scheduler in the spirit of the
// SPAA 2017 cluster/star algorithms the paper converts (Section IV-D notes
// they are randomized): it runs list scheduling under several random
// transaction priority orders and keeps the best. Deterministic for a
// given Seed; distinct invocations should use distinct seeds via Reseed.
type Randomized struct {
	Seed   int64
	Tries  int // candidate orders per Schedule call; 0 means 4
	Target float64
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

// WithRetry wraps a (typically randomized) batch scheduler with the paper's
// bad-event handling (Section IV-D): "we repeat the offline algorithm for
// that bucket until we successfully obtain a batch schedule" with the
// specified bound. Accept receives the candidate's makespan and says
// whether it is good enough; after MaxTries the best candidate seen is
// returned anyway (the online schedule must stay feasible).
func WithRetry(inner Scheduler, accept func(makespan core.Time, p *Problem) bool, maxTries int) Scheduler {
	if maxTries <= 0 {
		maxTries = 8
	}
	return &retryScheduler{inner: inner, accept: accept, maxTries: maxTries}
}

type retryScheduler struct {
	inner    Scheduler
	accept   func(core.Time, *Problem) bool
	maxTries int
	calls    int64
}

// Name implements Scheduler.
func (r *retryScheduler) Name() string { return r.inner.Name() + "+retry" }

// Schedule implements Scheduler.
func (r *retryScheduler) Schedule(p *Problem) (Assignment, error) {
	var best Assignment
	for try := 0; try < r.maxTries; try++ {
		inner := r.inner
		// Reseed randomized inners so retries actually differ (atomic: the
		// distributed protocol may call Schedule from concurrent handlers).
		if rz, ok := inner.(Randomized); ok {
			rz.Seed = rz.Seed ^ (atomic.AddInt64(&r.calls, 1) * 0x9e3779b9)
			inner = rz
		}
		asgn, err := inner.Schedule(p)
		if err != nil {
			return nil, fmt.Errorf("batch: retry %d: %w", try, err)
		}
		if best == nil || asgn.Makespan(p.Now) < best.Makespan(p.Now) {
			best = asgn
		}
		if r.accept == nil || r.accept(asgn.Makespan(p.Now), p) {
			return asgn, nil
		}
	}
	return best, nil
}
