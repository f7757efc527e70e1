// Package greedy implements Algorithm 1 of Busch et al. (IPPS 2020): the
// online greedy schedule. At each arrival time the newly generated
// transactions are inserted into the extended dependency graph H'_t —
// whose vertices are the live transactions plus a "current transaction" for
// each object's present position (including the artificial node for objects
// in transit) — and are greedily assigned valid colors, which translate
// directly into execution times.
//
// Two modes are provided:
//
//   - General weights (Theorem 1): colors are found with Lemma 1, so each
//     transaction generated at time t executes by t + 2Γ'_t(T) − Δ'_t(T).
//   - Uniform weights (Theorem 2): the graph is overlaid with a uniform
//     weight β (for the hypercube, β = log n — Section III-D), decisions
//     are quantized to epochs that are multiples of β, and colors are
//     found with Lemma 2, so each transaction executes by its epoch + Γ'.
//
// An H'_t edge weighs the time an object needs to cross it, so both modes
// plan at the run's object speed: distances, and β, are multiplied by the
// Sim's slow factor.
package greedy

import (
	"cmp"
	"fmt"
	"slices"

	"dtm/internal/coloring"
	"dtm/internal/core"
	"dtm/internal/depgraph"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
)

// Options configure the greedy scheduler.
type Options struct {
	// Uniform selects Theorem 2 mode: all conflict edges are overlaid with
	// the weight β = max(diameter, 1) × the slow factor, the time an
	// object needs to cross the graph (the hypercube analysis of Section
	// III-D; a one-node graph has diameter 0), and decisions happen on
	// multiples of β. Lemma 2 needs only β >= that crossing time.
	Uniform bool
	// Pad (>= 1) multiplies every dependency-graph edge weight, spacing
	// executions out by that factor. An extension for the paper's
	// bounded-link-capacity open problem: padded schedules leave slack for
	// objects that queue at saturated links, trading nominal latency for
	// fewer congestion stalls (experiment F13). Zero means 1 (no padding).
	Pad int
	// RebuildOracle selects the original per-arrival rebuild of H'_t
	// instead of the incremental depgraph index. Both engines produce
	// byte-identical schedules (the root differential test pins this);
	// the oracle is kept as the reference implementation.
	RebuildOracle bool
}

// Greedy is the online greedy scheduler. Create with New; it implements
// sched.Scheduler.
type Greedy struct {
	opts Options
	// Colorer holds the run's environment, H'_t's weights and, for the
	// incremental engine (default), the persistent conflict index.
	Colorer

	txns  []*core.Transaction // the batch in ID order; cleared after each call
	slots []depgraph.Slot

	// Rebuild oracle: per-arrival live tracking.
	live     []core.TxID                // scheduled and possibly still live
	objUsers map[core.ObjID][]core.TxID // live scheduled users per object

	buffer []*core.Transaction // Uniform mode: awaiting epoch

	// Instrument handles, the run's only count of the Theorem 1/2 bound
	// checks.
	metScheduled *obs.Counter   // greedy.colors_assigned
	metWithin    *obs.Counter   // greedy.within_bound
	metColor     *obs.Histogram // greedy.color: assigned color = delay
	metBound     *obs.Histogram // greedy.bound: the assignment's theorem bound
}

// Colorer is one greedy coloring step on the extended dependency graph
// H'_t: it colors a transaction already inserted into a depgraph index
// against the H'_t edges incident to it, with Lemma 1, or with Lemma 2 in
// uniform mode. Greedy colors every transaction through it; so does the
// window engine, which differs only in what it does with the color.
type Colorer struct {
	env *sched.Env
	idx *depgraph.Index
	// pad is the padding factor and scale the slow factor times pad: a
	// general-mode conflict weighs Dist × scale.
	pad, scale graph.Weight
	// beta is the uniform overlay weight β in uniform mode, 0 otherwise.
	beta graph.Weight
	// hub, set only by NewCoordinator, models the Section III-E funnel:
	// every execution time is floored by the distance from the hub to the
	// transaction's node (the scheduling decision must reach it).
	hub *graph.NodeID

	// The buffers of the coloring walk, reused across calls.
	forb  []coloring.Interval
	sweep coloring.Sweep
	nbrs  []depgraph.Neighbor
}

// NewColorer returns the general-mode coloring step over idx for a run in
// env: no padding and no hub, with travel at the Sim's slow factor.
func NewColorer(env *sched.Env, idx *depgraph.Index) *Colorer {
	return &Colorer{env: env, idx: idx, pad: 1, scale: graph.Weight(env.Sim.SlowFactor())}
}

// New returns a greedy scheduler with the given options.
func New(opts Options) *Greedy {
	return &Greedy{opts: opts, objUsers: make(map[core.ObjID][]core.TxID)}
}

// Name implements sched.Scheduler.
func (g *Greedy) Name() string {
	name := "greedy"
	if g.opts.Uniform {
		name = fmt.Sprintf("greedy-uniform(beta=%d)", g.beta)
	}
	if g.opts.Pad > 1 {
		name += fmt.Sprintf("+pad%d", g.opts.Pad)
	}
	return name
}

// Start implements sched.Scheduler.
func (g *Greedy) Start(env *sched.Env) error {
	g.env = env
	g.metScheduled = env.Obs.Counter(obs.NameGreedyColorsAssigned)
	g.metWithin = env.Obs.Counter(obs.NameGreedyWithinBound)
	g.metColor = env.Obs.Histogram(obs.NameGreedyColor)
	g.metBound = env.Obs.Histogram(obs.NameGreedyBound)
	if !g.opts.RebuildOracle {
		g.idx = depgraph.NewIndex(env.Sim, env.Obs)
	}
	slow := graph.Weight(env.Sim.SlowFactor())
	g.pad = max(graph.Weight(g.opts.Pad), 1)
	g.scale = slow * g.pad
	if g.opts.Uniform {
		g.beta = max(env.G.Diameter(), 1) * slow
	}
	return g.checkPad(slow)
}

// checkPad refuses a padding factor under which a padded H'_t weight
// could wrap. A distance is at most the Sim's path bound, (N-1) × the
// largest edge weight, and NewSim keeps the slow factor times it at most
// graph.Infinite; Pad times that product, and in uniform mode Pad times
// β, must stay below graph.Infinite too. On a one-node graph β is the
// slow factor itself, which NewSim does not bound.
func (g *Greedy) checkPad(slow graph.Weight) error {
	pad, bound := g.pad, core.PathBound(g.env.G)
	if span := slow * bound; span > 0 && pad > (graph.Infinite-1)/span {
		return fmt.Errorf("greedy: padding factor %d times the slow factor %d and the path bound %d ((N-1) × largest edge weight) reaches %d",
			pad, slow, bound, graph.Infinite)
	}
	if g.opts.Uniform && pad > (graph.Infinite-1)/g.beta {
		return fmt.Errorf("greedy: padding factor %d times beta %d reaches %d", pad, g.beta, graph.Infinite)
	}
	return nil
}

// OnArrive implements sched.Scheduler: in general mode transactions are
// scheduled immediately; in uniform mode they wait for the next epoch.
func (g *Greedy) OnArrive(txns []*core.Transaction) error {
	if g.opts.Uniform {
		g.buffer = append(g.buffer, txns...)
		return nil
	}
	return g.schedule(txns)
}

// NextWake implements sched.Scheduler.
func (g *Greedy) NextWake() (core.Time, bool) {
	if !g.opts.Uniform || len(g.buffer) == 0 {
		return 0, false
	}
	now := g.env.Sim.Now()
	b := core.Time(g.beta)
	next := (now + b - 1) / b * b
	return next, true
}

// OnWake implements sched.Scheduler: uniform mode schedules the buffered
// transactions at the epoch boundary.
func (g *Greedy) OnWake() error {
	txns := g.buffer
	g.buffer = nil
	return g.schedule(txns)
}

// schedule colors the new transactions against the extended dependency
// graph H'_t and fixes their execution times. The incremental engine
// (default) walks the persistent depgraph index; RebuildOracle keeps the
// original reconstruct-per-arrival path as a reference. Both produce the
// same schedule for every input: the greedy color depends only on the
// set of forbidden intervals, which the two engines assemble from the
// same edges via the shared coloring.Sweep search.
func (g *Greedy) schedule(txns []*core.Transaction) error {
	if len(txns) == 0 {
		return nil
	}
	now := g.env.Sim.Now()
	if g.opts.RebuildOracle {
		return g.scheduleRebuild(txns, now)
	}
	return g.scheduleIncremental(txns, now)
}

// scheduleIncremental is the depgraph-backed engine: prune-by-expiry,
// insert the batch into the object postings, then color each transaction
// from its posting neighborhood.
func (g *Greedy) scheduleIncremental(txns []*core.Transaction, now core.Time) error {
	g.idx.Refresh(now)

	// Insert every new transaction before coloring any, so same-batch
	// conflicts are visible from both sides (the rebuild path wires
	// new-new edges explicitly before its coloring loop). Color in ID
	// order, exactly like the oracle.
	sorted := append(g.txns[:0], txns...)
	slices.SortFunc(sorted, byID)
	slots := g.slots[:0]
	for _, tx := range sorted {
		slots = append(slots, g.idx.Insert(tx))
	}

	var err error
	for i, tx := range sorted {
		c, bound := g.Color(tx, slots[i], now)
		g.recordAudit(c, bound)
		if err = g.env.Sim.Decide(tx.ID, now+core.Time(c)); err != nil {
			break
		}
		g.idx.SetDecided(slots[i], now+core.Time(c))
	}
	g.slots = slots[:0]
	clear(sorted) // no transaction outlives the call
	g.txns = sorted[:0]
	return err
}

// byID orders a batch by transaction ID, the coloring order of both
// engines.
func byID(a, b *core.Transaction) int { return cmp.Compare(a.ID, b.ID) }

// recordAudit counts the Theorem 1/2 bound check for one assignment.
func (g *Greedy) recordAudit(c, bound coloring.Color) {
	g.metScheduled.Inc()
	g.metColor.Observe(int64(c))
	g.metBound.Observe(int64(bound))
	if c <= bound {
		g.metWithin.Inc()
	}
}

// LiveStats reports the live-set bookkeeping sizes — tracked live
// transactions and total object-posting entries — for the leak-guard
// tests: after a prune at time t, neither set may retain transactions
// executed before t.
func (g *Greedy) LiveStats() (live, postings int) {
	if g.idx != nil {
		st := g.idx.Snapshot()
		return st.LiveVertices, st.PostingEntries
	}
	live = len(g.live)
	for _, users := range g.objUsers {
		postings += len(users)
	}
	return live, postings
}

// scheduleRebuild is the reference engine: it reconstructs the extended
// dependency graph from scratch at every arrival.
func (g *Greedy) scheduleRebuild(txns []*core.Transaction, now core.Time) error {
	g.prune(now)

	// Vertex layout: [new txns][conflicting scheduled live txns][Z vertices]
	// [optional hub anchor].
	newIdx := make(map[core.TxID]coloring.VertexID, len(txns))
	for i, tx := range txns {
		newIdx[tx.ID] = coloring.VertexID(i)
	}
	oldIdx := make(map[core.TxID]coloring.VertexID)
	zIdx := make(map[core.ObjID]coloring.VertexID)
	var oldList []core.TxID
	var zList []core.ObjID
	for _, tx := range txns {
		for _, o := range tx.Objects {
			if _, ok := zIdx[o]; !ok {
				zIdx[o] = 0 // placeholder; assigned below
				zList = append(zList, o)
			}
			for _, u := range g.objUsers[o] {
				if _, ok := newIdx[u]; ok {
					continue
				}
				if _, ok := oldIdx[u]; !ok {
					oldIdx[u] = 0
					oldList = append(oldList, u)
				}
			}
		}
	}
	base := len(txns)
	for i, u := range oldList {
		oldIdx[u] = coloring.VertexID(base + i)
	}
	base += len(oldList)
	for i, o := range zList {
		zIdx[o] = coloring.VertexID(base + i)
	}
	base += len(zList)
	total := base
	hubVertex := coloring.VertexID(-1)
	if g.hub != nil {
		hubVertex = coloring.VertexID(total)
		total++
	}
	cg := coloring.New(total)

	// Pre-color scheduled live transactions with their remaining time, and
	// current transactions (object positions) with 0.
	for u, v := range oldIdx {
		exec, ok := g.env.Sim.Scheduled(u)
		if !ok {
			return fmt.Errorf("greedy: live transaction %d has no schedule", u)
		}
		cg.SetColor(v, coloring.Color(exec-now))
	}
	for _, o := range zList {
		cg.SetColor(zIdx[o], 0)
	}
	if hubVertex >= 0 {
		cg.SetColor(hubVertex, 0)
	}

	// Edges incident to new transactions.
	type pair struct{ a, b coloring.VertexID }
	seen := make(map[pair]bool)
	addEdge := func(a, b coloring.VertexID, w graph.Weight) error {
		if a > b {
			a, b = b, a
		}
		if seen[pair{a, b}] {
			return nil
		}
		seen[pair{a, b}] = true
		return cg.AddEdge(a, b, w)
	}
	for _, tx := range txns {
		tv := newIdx[tx.ID]
		if hubVertex >= 0 {
			if err := addEdge(tv, hubVertex, g.roundUp(g.env.G.Dist(*g.hub, tx.Node))); err != nil {
				return err
			}
		}
		for _, o := range tx.Objects {
			// Current-transaction edge: the object's feasible travel time
			// to this transaction from its present position.
			if err := addEdge(tv, zIdx[o], g.zWeight(o, tx.Node, now)); err != nil {
				return err
			}
			// Conflict edges to every other live user of o.
			for _, u := range g.objUsers[o] {
				if u == tx.ID {
					continue
				}
				var uv coloring.VertexID
				if v, ok := newIdx[u]; ok {
					uv = v
				} else {
					uv = oldIdx[u]
				}
				// objUsers was pruned of executed transactions above, so u
				// is live and inside the window — Txn cannot return nil.
				if err := addEdge(tv, uv, g.conflictWeight(tx.Node, g.env.Sim.Txn(u).Node)); err != nil {
					return err
				}
			}
		}
	}
	// Register the new transactions as users before coloring so that
	// new-new conflicts are fully wired (they already are, since objUsers
	// additions below only matter for future arrivals) — but they must be
	// in objUsers for each other: wire them explicitly now.
	for i, tx := range txns {
		for j := i + 1; j < len(txns); j++ {
			if tx.Conflicts(txns[j]) {
				if err := addEdge(newIdx[tx.ID], newIdx[txns[j].ID], g.conflictWeight(tx.Node, txns[j].Node)); err != nil {
					return err
				}
			}
		}
	}

	// Color the new transactions in ID order and commit decisions.
	sorted := append([]*core.Transaction(nil), txns...)
	slices.SortFunc(sorted, byID)
	for _, tx := range sorted {
		v := newIdx[tx.ID]
		var c, bound coloring.Color
		if g.opts.Uniform {
			c = cg.GreedyColorUniform(v, g.beta)
			bound = coloring.Color(cg.WeightedDegree(v)) + coloring.Color(g.beta)
		} else {
			c = cg.GreedyColor(v)
			bound = 2*coloring.Color(cg.WeightedDegree(v)) - coloring.Color(cg.Degree(v))
			if bound < 0 {
				bound = 0
			}
		}
		g.recordAudit(c, bound)
		if err := g.env.Sim.Decide(tx.ID, now+core.Time(c)); err != nil {
			return err
		}
	}
	// Track the new transactions as live users.
	for _, tx := range txns {
		g.live = append(g.live, tx.ID)
		for _, o := range tx.Objects {
			g.objUsers[o] = append(g.objUsers[o], tx.ID)
		}
	}
	return nil
}

// Color returns the smallest valid color of tx, inserted into the index at
// slot, at time now, and the color's Theorem 1 bound (Theorem 2's in
// uniform mode). It gathers tx's H'_t edges: the hub edge, a Z edge per
// object and a conflict edge per neighbor in the index. Weight-0 edges
// impose no constraint and are dropped (as coloring.AddEdge drops them).
// Every other edge counts toward the bound, but only a decided neighbor
// forbids an interval: same-batch neighbors not yet colored count like
// uncolored vertices in the rebuild graph.
func (c *Colorer) Color(tx *core.Transaction, slot depgraph.Slot, now core.Time) (color, bound coloring.Color) {
	forb := c.forb[:0]
	var deg int
	var wdeg graph.Weight
	if c.hub != nil {
		if w := c.roundUp(c.env.G.Dist(*c.hub, tx.Node)); w > 0 {
			deg++
			wdeg += w
			forb = append(forb, coloring.Forbid(0, w))
		}
	}
	for _, o := range tx.Objects {
		// Current-transaction (Z) edge: a pure floor at pre-color 0.
		if w := c.zWeight(o, tx.Node, now); w > 0 {
			deg++
			wdeg += w
			forb = append(forb, coloring.Forbid(0, w))
		}
	}
	nbrs := c.idx.AppendNeighbors(slot, c.nbrs[:0])
	for _, nb := range nbrs {
		w := c.conflictWeight(tx.Node, nb.Node)
		if w == 0 {
			continue
		}
		deg++
		wdeg += w
		if nb.Exec != depgraph.Undecided {
			forb = append(forb, coloring.Forbid(coloring.Color(nb.Exec-now), w))
		}
	}
	c.nbrs = nbrs[:0]
	if c.beta != 0 {
		color = c.sweep.SmallestValidMultiple(forb, c.beta)
		bound = coloring.Color(wdeg) + coloring.Color(c.beta)
	} else {
		color = c.sweep.SmallestValid(forb)
		bound = max(2*coloring.Color(wdeg)-coloring.Color(deg), 0)
	}
	c.forb = forb[:0]
	return color, bound
}

// conflictWeight is the H'_t edge weight between two conflicting
// transactions: an object's travel time between their nodes at the run's
// speed, or the uniform overlay weight β, scaled by the congestion
// padding factor.
func (c *Colorer) conflictWeight(a, b graph.NodeID) graph.Weight {
	if c.beta != 0 {
		return c.beta * c.pad
	}
	return c.env.G.Dist(a, b) * c.scale
}

// zWeight is the H'_t edge weight between a transaction at node and the
// object's current transaction Z_t(o): the object's feasible travel time,
// plus its remaining creation delay if it does not exist yet.
func (c *Colorer) zWeight(o core.ObjID, node graph.NodeID, now core.Time) graph.Weight {
	w := c.env.Sim.ObjDistTo(o, node) * c.pad
	if created := c.env.Sim.Instance().Objects[o].Created; created > now {
		w += graph.Weight(created - now)
	}
	return c.roundUp(w)
}

// roundUp rounds an edge weight up to a multiple of β in uniform mode, so
// Lemma 2's multiples-of-β colors apply; general mode keeps it.
func (c *Colorer) roundUp(w graph.Weight) graph.Weight {
	if c.beta == 0 || w%c.beta == 0 {
		return w
	}
	return (w/c.beta + 1) * c.beta
}

// prune drops executed transactions from the live tracking structures.
func (g *Greedy) prune(now core.Time) {
	isLive := func(id core.TxID) bool {
		et, ok := g.env.Sim.Executed(id)
		return !ok || et >= now
	}
	keep := g.live[:0]
	for _, id := range g.live {
		if isLive(id) {
			keep = append(keep, id)
		}
	}
	g.live = keep
	for o, users := range g.objUsers {
		ku := users[:0]
		for _, id := range users {
			if isLive(id) {
				ku = append(ku, id)
			}
		}
		if len(ku) == 0 {
			delete(g.objUsers, o)
		} else {
			g.objUsers[o] = ku
		}
	}
}
