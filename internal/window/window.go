// Package window implements the randomized window-based greedy contention
// manager of Sharma, Estrade & Busch, "Window-Based Greedy Contention
// Management for Transactional Memory" (arXiv:1002.4182), adapted to the
// data-flow scheduling model of Busch et al. (IPPS 2020).
//
// In the original shared-memory formulation each transaction tries to
// commit inside a time window of W frames, drawing a fresh random priority
// per window; on contention the lower-priority transaction aborts, and a
// transaction that exhausts its window retries with a doubled one. Here
// decisions are irrevocable execution times, so the window becomes an
// acceptance threshold on the greedy color: at every arrival batch each
// undecided transaction draws a fresh seeded random priority per round,
// transactions are colored against the extended dependency graph H'_t in
// priority order, and a transaction whose smallest valid color fits inside
// its current window W is placed at now + color; one that does not "aborts"
// — its window doubles and it re-enters the next round with a fresh draw.
// The randomized priorities play the paper's role of separating conflicting
// transactions into different frames with high probability: a transaction
// that keeps losing the draw sees its window grow exponentially, so it is
// eventually accepted regardless of the adversarial conflict pattern (the
// paper's O(τ·C·log n) makespan bound for balanced workloads translates to
// the expected number of doublings being logarithmic in the contention
// degree).
//
// Each candidate is colored by the greedy engine's own coloring step
// (greedy.Colorer, in general mode) over the window's persistent conflict
// index (internal/depgraph), so like greedy the window plans at the run's
// object speed; the first window is multiplied by the Sim's slow factor
// too.
package window

import (
	"fmt"
	"math/rand"
	"sort"

	"dtm/internal/coloring"
	"dtm/internal/core"
	"dtm/internal/depgraph"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/sched"
)

// DefaultSeed seeds the priority draws when Options.Seed is zero, so the
// zero Options value is a fully deterministic scheduler.
const DefaultSeed = 0x1002_4182 // the window paper's arXiv number

// maxRounds bounds the retry rounds per arrival batch. The window doubles
// every round a transaction loses, and the smallest valid color is bounded
// by the total forbidden-interval mass of the batch, so the bound can only
// trip on an engine bug, never on a legal instance.
const maxRounds = 64

// maxWindow caps the doubling so the window never overflows; any color a
// legal instance can produce fits far below it.
const maxWindow = graph.Weight(1) << 40

// Options configure the window scheduler.
type Options struct {
	// Seed drives the per-round priority draws; zero selects DefaultSeed.
	// Runs with equal seeds are byte-identical; different seeds explore
	// different priority orders (the algorithm's only randomness).
	Seed int64
}

// cand is one undecided transaction's state across the rounds of a batch.
type cand struct {
	tx     *core.Transaction
	slot   depgraph.Slot
	win    graph.Weight
	prio   uint64
	placed bool
}

// Window is the randomized window-based greedy scheduler. Create with New;
// it implements sched.Scheduler.
type Window struct {
	opts Options
	env  *sched.Env
	rng  *rand.Rand
	w0   graph.Weight

	// The conflict index, the coloring step over it and the buffers of
	// the rounds, reused across calls.
	idx   *depgraph.Index
	col   *greedy.Colorer
	txns  []*core.Transaction // the batch in ID order; cleared after each call
	cands []cand
	order []int

	// Instrument handles, the run's only count of the window bookkeeping.
	metPlaced  *obs.Counter   // window.placed
	metRetries *obs.Counter   // window.retries
	metColor   *obs.Histogram // window.color: accepted color = delay
	metWin     *obs.Histogram // window.win: window size at acceptance
}

// New returns a window scheduler with the given options.
func New(opts Options) *Window {
	return &Window{opts: opts}
}

// Name implements sched.Scheduler.
func (w *Window) Name() string {
	if w.w0 > 0 {
		return fmt.Sprintf("window(w0=%d)", w.w0)
	}
	return "window"
}

// Start implements sched.Scheduler.
func (w *Window) Start(env *sched.Env) error {
	w.env = env
	w.metPlaced = env.Obs.Counter(obs.NameWindowPlaced)
	w.metRetries = env.Obs.Counter(obs.NameWindowRetries)
	w.metColor = env.Obs.Histogram(obs.NameWindowColor)
	w.metWin = env.Obs.Histogram(obs.NameWindowWin)
	w.idx = depgraph.NewIndex(env.Sim, env.Obs)
	w.col = greedy.NewColorer(env, w.idx)
	seed := w.opts.Seed
	if seed == 0 {
		seed = DefaultSeed
	}
	// Re-seeded per run so a reused scheduler value replays identically.
	w.rng = rand.New(rand.NewSource(seed))
	// The first acceptance window W is the time an object needs to cross
	// the graph (the diameter, at least 1, at the run's speed), the natural
	// frame length under which a decision can cross the graph.
	w.w0 = max(env.G.Diameter(), 1) * graph.Weight(env.Sim.SlowFactor())
	return nil
}

// OnArrive implements sched.Scheduler: every batch is resolved to
// irrevocable decisions before the call returns (like greedy's general
// mode), so the scheduler never defers work.
func (w *Window) OnArrive(txns []*core.Transaction) error {
	return w.schedule(txns)
}

// NextWake implements sched.Scheduler.
func (w *Window) NextWake() (core.Time, bool) { return 0, false }

// OnWake implements sched.Scheduler.
func (w *Window) OnWake() error { return nil }

// schedule runs the window algorithm on one arrival batch: insert all new
// transactions into the conflict index, then round after round draw fresh
// priorities, color in priority order, accept colors inside the window,
// and double the window of every loser until the batch is placed.
func (w *Window) schedule(txns []*core.Transaction) error {
	if len(txns) == 0 {
		return nil
	}
	now := w.env.Sim.Now()
	w.idx.Refresh(now)

	// Insert every new transaction before coloring any, so same-batch
	// conflicts are visible from both sides. cands stays ID-sorted across
	// rounds: draws happen in ID order, the round processes in priority
	// order, and compaction preserves ID order — all deterministic.
	sorted := append(w.txns[:0], txns...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	cands := w.cands[:0]
	for _, tx := range sorted {
		cands = append(cands, cand{tx: tx, slot: w.idx.Insert(tx), win: w.w0})
	}
	all := cands
	clear(sorted) // no transaction outlives the call
	w.txns = sorted[:0]

	rounds := 0
	var err error
	for len(cands) > 0 && err == nil {
		rounds++
		if rounds > maxRounds {
			err = fmt.Errorf("window: batch of %d at t=%d still unplaced after %d rounds (window %d)",
				len(cands), now, rounds-1, cands[0].win)
			break
		}
		// Fresh seeded priorities, drawn in ID order.
		for i := range cands {
			cands[i].prio = w.rng.Uint64()
		}
		order := w.order[:0]
		for i := range cands {
			order = append(order, i)
		}
		sort.Slice(order, func(a, b int) bool {
			ca, cb := &cands[order[a]], &cands[order[b]]
			if ca.prio != cb.prio {
				return ca.prio < cb.prio
			}
			return ca.tx.ID < cb.tx.ID
		})
		err = w.round(cands, order, now)
		w.order = order[:0]

		keep := cands[:0]
		for i := range cands {
			if !cands[i].placed {
				keep = append(keep, cands[i])
			}
		}
		cands = keep
	}
	clear(all) // candidates left behind by compaction still hold their transactions
	w.cands = all[:0]
	return err
}

// round colors one round in priority order, each candidate against the
// decisions made before it, right before its accept-or-double decision.
func (w *Window) round(cands []cand, order []int, now core.Time) error {
	for _, ci := range order {
		c := &cands[ci]
		col, _ := w.col.Color(c.tx, c.slot, now)
		if err := w.resolve(c, col, now); err != nil {
			return err
		}
	}
	return nil
}

// resolve applies one candidate's accept-or-double decision: a color
// inside the window is an irrevocable placement; outside, the candidate
// "aborts" — its window doubles and it re-enters the next round.
func (w *Window) resolve(c *cand, col coloring.Color, now core.Time) error {
	if col < coloring.Color(c.win) {
		exec := now + core.Time(col)
		if err := w.env.Sim.Decide(c.tx.ID, exec); err != nil {
			return err
		}
		w.idx.SetDecided(c.slot, exec)
		c.placed = true
		w.metPlaced.Inc()
		w.metColor.Observe(int64(col))
		w.metWin.Observe(int64(c.win))
		return nil
	}
	if c.win < maxWindow {
		c.win *= 2
	}
	w.metRetries.Inc()
	return nil
}

// LiveStats reports the conflict-index bookkeeping sizes — live vertices
// and object-posting entries — for the streaming driver's live-state gauge
// and the leak-guard tests.
func (w *Window) LiveStats() (live, postings int) {
	if w.idx == nil {
		return 0, 0
	}
	st := w.idx.Snapshot()
	return st.LiveVertices, st.PostingEntries
}
