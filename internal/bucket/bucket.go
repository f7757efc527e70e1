// Package bucket implements Algorithm 2 of Busch et al. (IPPS 2020): the
// online bucket schedule, which converts an arbitrary offline batch
// scheduling algorithm A into an online scheduler.
//
// Transactions wait in disjoint buckets B_i, i >= 0. A new transaction is
// inserted into the smallest-level bucket whose batch problem — together
// with the already-scheduled transactions T^s, folded in as object
// availability — A can execute within 2^i steps (F_A(T^s ∪ B_i ∪ {T}) <=
// 2^i). No valid batch schedule runs T before its floor, the time its
// objects can first reach it, so the probes start at the first level with
// 2^i at least the floor's distance from now (Place). Bucket B_i activates
// every 2^i steps (at multiples of 2^i here; the paper does not require
// alignment); on activation its transactions are scheduled by A without
// altering earlier decisions, and they join T^s.
// Theorem 4: the result is O(b_A · log³(nD))-competitive where b_A is A's
// approximation ratio.
package bucket

import (
	"fmt"
	"math"
	"math/bits"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
)

// Options configure the bucket scheduler.
type Options struct {
	// Batch is the offline algorithm A to convert. Required.
	Batch batch.Scheduler
	// ForceTopLevel is an ablation switch: every transaction goes straight
	// into the top bucket, disabling the leveled structure. It isolates
	// the benefit the paper attributes to buckets — transactions with few
	// dependencies progressing through frequently activated low levels.
	ForceTopLevel bool
	// RebuildOracle rebuilds the batch problem (object availability map
	// and candidate slice) from scratch for every level probe, as the
	// original implementation did, instead of driving the persistent
	// per-level batch sessions. Both paths produce identical placements —
	// a session's Cost/Assign is pinned byte-identical to the one-shot
	// Schedule on the same candidate set — and the root differential test
	// pins that.
	RebuildOracle bool
}

// Bucket is the online bucket scheduler; it implements sched.Scheduler.
type Bucket struct {
	opts   Options
	env    *sched.Env
	slow   graph.Weight          // the sim's object speed divisor; batch problems plan with it
	levels [][]*core.Transaction // each level's pending transactions, in insertion order

	// Incremental engine (default): one persistent batch session per
	// level, holding exactly the level's pending transactions, driven
	// against one live problem. Its availability map lives for the whole
	// run: an entry is added when a transaction using the object arrives
	// and refreshed when activate decides one.
	sessions []batch.Session
	avail    map[core.ObjID]batch.Avail
	prob     batch.Problem
	resolve  batch.AvailFunc // bound method value, allocated once

	// Instrument handles, the run's only count of the Lemma 3/4
	// bookkeeping.
	metInserted    *obs.Counter   // bucket.insertions
	metOverflow    *obs.Counter   // bucket.overflows: fit no level, forced into the top one
	metActivations *obs.Counter   // bucket.activations
	metScheduled   *obs.Counter   // bucket.scheduled
	metWithin4     *obs.Counter   // bucket.within_lemma4
	metLevel       *obs.Histogram // bucket.level: insertion level
}

// New returns a bucket scheduler converting the given batch algorithm.
func New(opts Options) *Bucket {
	return &Bucket{opts: opts}
}

// Name implements sched.Scheduler.
func (b *Bucket) Name() string {
	if b.opts.Batch == nil {
		return "bucket(nil)"
	}
	return fmt.Sprintf("bucket(%s)", b.opts.Batch.Name())
}

// Start implements sched.Scheduler.
func (b *Bucket) Start(env *sched.Env) error {
	if b.opts.Batch == nil {
		return fmt.Errorf("bucket: no batch scheduler configured")
	}
	b.env = env
	b.slow = graph.Weight(env.Sim.SlowFactor())
	b.metInserted = env.Obs.Counter(obs.NameBucketInsertions)
	b.metOverflow = env.Obs.Counter(obs.NameBucketOverflows)
	b.metActivations = env.Obs.Counter(obs.NameBucketActivations)
	b.metScheduled = env.Obs.Counter(obs.NameBucketScheduled)
	b.metWithin4 = env.Obs.Counter(obs.NameBucketWithinLemma4)
	b.metLevel = env.Obs.Histogram(obs.NameBucketLevel)
	max, err := MaxLevel(env.G, b.slow)
	if err != nil {
		return err
	}
	b.levels = make([][]*core.Transaction, max+1)
	b.resolve = b.resolveAvail
	if !b.opts.RebuildOracle {
		b.avail = make(map[core.ObjID]batch.Avail)
		b.prob = batch.Problem{G: env.G, Avail: b.avail, Slow: b.slow}
		b.sessions = make([]batch.Session, max+1)
		for i := range b.sessions {
			b.sessions[i] = batch.NewSession(b.opts.Batch, &b.prob, env.Obs)
		}
	}
	return nil
}

// MaxLevel returns the top bucket level on g for objects slowed by slow:
// ceil(log2(n·D·slow)) + 1 (Lemma 3). It refuses a graph whose top level
// would pass 62, where a level's period 2^i is no longer a positive
// core.Time, rather than wrap. Both bucket engines, central and
// distributed, size their levels with it; what does not fit the top level
// overflows into it.
func MaxLevel(g *graph.Graph, slow graph.Weight) (int, error) {
	hi, nd := bits.Mul64(uint64(g.N()), uint64(g.Diameter()))
	if hi == 0 {
		hi, nd = bits.Mul64(nd, uint64(slow))
	}
	if level := bits.Len64(max(nd, 2)-1) + 1; hi == 0 && level <= 62 {
		return level, nil
	}
	return 0, fmt.Errorf("bucket: n=%d, D=%d and slow factor %d need a top level past 62 (Lemma 3: ceil(log2(n·D·slow))+1), where a level's period 2^i overflows",
		g.N(), g.Diameter(), slow)
}

// lemma4Bound is Lemma 4's execution deadline for a transaction inserted
// at level, relative to its insertion: (level+1)·2^(level+2), saturated at
// the largest core.Time. A transaction is inserted at its arrival step,
// where the driver delivers it, so the deadline counts from tx.Arrival.
// It holds for the paper's idealized A; the engine counts adherence in
// bucket.within_lemma4.
func lemma4Bound(level int) core.Time {
	shift := uint(level + 2)
	if core.Time(level+1) > math.MaxInt64>>shift {
		return math.MaxInt64
	}
	return core.Time(level+1) << shift
}

// LiveStats reports the pending-set bookkeeping sizes: transactions
// waiting in the level buckets, and transaction pointers currently held by
// the per-level batch sessions (0 under the rebuild oracle). The two must
// agree after every OnArrive/OnWake; the leak-guard test pins it.
func (b *Bucket) LiveStats() (pending, sessionHeld int) {
	for _, lv := range b.levels {
		pending += len(lv)
	}
	for _, s := range b.sessions {
		sessionHeld += s.Len()
	}
	return pending, sessionHeld
}

// OnArrive implements sched.Scheduler: each new transaction goes into the
// smallest-level bucket that keeps the batch cost within 2^i.
//
// The default engine probes through the persistent per-level sessions
// (Place). Only the new transaction's objects can lack an entry in the
// live availability map; every pending transaction's entries are already
// there and current.
func (b *Bucket) OnArrive(txns []*core.Transaction) error {
	now := b.env.Sim.Now()
	if b.opts.RebuildOracle {
		return b.arriveRebuild(txns, now)
	}
	b.prob.Now = now
	top := len(b.levels) - 1
	for _, tx := range txns {
		batch.ExtendAvailTx(b.avail, tx, b.resolve)
		if b.opts.ForceTopLevel {
			b.sessions[top].Push(tx)
			b.insert(top, tx)
			continue
		}
		level, overflowed, err := Place(&b.prob, tx, len(b.levels), func(i int) batch.Session { return b.sessions[i] })
		if err != nil {
			return fmt.Errorf("bucket: %w", err)
		}
		b.insert(level, tx)
		if overflowed {
			b.metOverflow.Inc()
		}
	}
	return nil
}

// Place is Algorithm 2's placement probe over the persistent batch
// sessions of levels 0..levels-1 on the live problem p, session(i) being
// level i's. Every batch scheduler runs tx at or after p.Floor(tx) (the
// batch.Scheduler contract), so a level with 2^i < Floor(tx) − Now is a
// certain miss: Place reads the floor once and starts at the first level
// past it. From there it pushes tx into each level's session in turn and
// keeps it at the first level i whose batch cost is within 2^i, popping
// it from every level it misses. A Pop retracts only the probe, so the
// level's cached state (conflict components, adjacency, tour trees)
// carries over to the next probe instead of being rebuilt. A transaction
// that fits no level (outside the theory's preconditions, e.g. overload
// beyond one live transaction per node), its floor past the top level's
// 2^i included, is pushed into the top level's session to stay safe
// there, and overflowed is true. A transaction with an object missing
// from p.Avail fails before any Push. Both bucket engines, central and
// distributed, place through it.
func Place(p *batch.Problem, tx *core.Transaction, levels int, session func(level int) batch.Session) (level int, overflowed bool, err error) {
	floor, err := p.Floor(tx)
	if err != nil {
		return 0, false, err
	}
	for i := floorLevel(floor - p.Now); i < levels; i++ {
		sess := session(i)
		sess.Push(tx)
		cost, err := sess.Cost()
		if err != nil {
			return 0, false, fmt.Errorf("cost probe at level %d: %w", i, err)
		}
		if cost <= 1<<uint(i) {
			return i, false, nil
		}
		sess.Pop()
	}
	top := levels - 1
	session(top).Push(tx)
	return top, true, nil
}

// floorLevel returns the smallest level i with 2^i >= d, for a floor d
// steps past Now (d >= 0).
func floorLevel(d core.Time) int {
	return bits.Len64(uint64(max(d, 1) - 1))
}

// arriveRebuild is the oracle engine: the batch problem (availability map
// and candidate slice) is rebuilt from scratch for every level probe, as
// the original implementation did, and every level is probed from 0, so
// the differential tests check Place's floor skip against a probe of
// every level.
func (b *Bucket) arriveRebuild(txns []*core.Transaction, now core.Time) error {
	for _, tx := range txns {
		if b.opts.ForceTopLevel {
			b.insert(len(b.levels)-1, tx)
			continue
		}
		placed := false
		for i := range b.levels {
			cand := make([]*core.Transaction, 0, len(b.levels[i])+1)
			cand = append(append(cand, b.levels[i]...), tx)
			cost, err := batch.Cost(b.opts.Batch, b.problem(cand, now))
			if err != nil {
				return fmt.Errorf("bucket: cost probe at level %d: %w", i, err)
			}
			if cost <= 1<<uint(i) {
				b.insert(i, tx)
				placed = true
				break
			}
		}
		if !placed {
			b.insert(len(b.levels)-1, tx)
			b.metOverflow.Inc()
		}
	}
	return nil
}

func (b *Bucket) insert(level int, tx *core.Transaction) {
	b.levels[level] = append(b.levels[level], tx)
	b.metInserted.Inc()
	b.metLevel.Observe(int64(level))
}

// NextActivation returns the first activation of a level-i bucket at or
// after now: B_i activates at the multiples of 2^i (Algorithm 2). It is
// the one activation rule of both the central and the distributed bucket
// engines.
func NextActivation(now core.Time, i int) core.Time {
	period := core.Time(1) << uint(i)
	return (now + period - 1) / period * period
}

// Due reports whether a level-i bucket activates at now.
func Due(now core.Time, i int) bool { return NextActivation(now, i) == now }

// NextWake implements sched.Scheduler: the earliest activation time of any
// non-empty bucket.
func (b *Bucket) NextWake() (core.Time, bool) {
	now := b.env.Sim.Now()
	best := core.Time(-1)
	for i := range b.levels {
		if len(b.levels[i]) == 0 {
			continue
		}
		next := NextActivation(now, i)
		if best < 0 || next < best {
			best = next
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// OnWake implements sched.Scheduler: activate every due bucket, lowest
// level first, so higher levels see the lower levels' fresh decisions.
func (b *Bucket) OnWake() error {
	now := b.env.Sim.Now()
	for i := range b.levels {
		if len(b.levels[i]) == 0 || !Due(now, i) {
			continue
		}
		if err := b.activate(i, now); err != nil {
			return err
		}
	}
	return nil
}

func (b *Bucket) activate(level int, now core.Time) error {
	txns := b.levels[level]
	b.levels[level] = nil
	b.metActivations.Inc()
	var asgn batch.Assignment
	var err error
	if b.opts.RebuildOracle {
		asgn, err = b.opts.Batch.Schedule(b.problem(txns, now))
	} else {
		// The live entries are current: lower levels activated in the
		// same wake re-resolved the objects they decided.
		b.prob.Now = now
		sess := b.sessions[level]
		asgn, err = sess.Assign()
		sess.Reset()
	}
	if err != nil {
		return fmt.Errorf("bucket: activating level %d: %w", level, err)
	}
	for _, tx := range txns {
		exec, ok := asgn[tx.ID]
		if !ok {
			return fmt.Errorf("bucket: batch scheduler %s dropped transaction %d", b.opts.Batch.Name(), tx.ID)
		}
		if exec < now {
			return fmt.Errorf("bucket: batch scheduler %s assigned past time %d to transaction %d", b.opts.Batch.Name(), exec, tx.ID)
		}
		if err := b.env.Sim.Decide(tx.ID, exec); err != nil {
			return err
		}
		b.metScheduled.Inc()
		if exec-tx.Arrival <= lemma4Bound(level) {
			b.metWithin4.Inc()
		}
	}
	if !b.opts.RebuildOracle {
		for _, tx := range txns {
			b.refresh(tx, now)
		}
	}
	return nil
}

// refresh re-resolves the live entries of tx's objects. It overwrites an
// entry (Problem.SetAvail, which the sessions read) only where the fresh
// value differs in what the batch schedulers read: the node, or the free
// time clamped to now. Nothing else needs refreshing: core.Sim commits
// each object's users in decided order, elastic commits too, so only a
// decision moves an object's last user, and between two decisions
// resolveAvail's answer changes only in Free, from a value ≤ Now to Now,
// which every batch scheduler reads clamped to Now.
func (b *Bucket) refresh(tx *core.Transaction, now core.Time) {
	for _, o := range tx.Objects {
		a, cur := b.resolveAvail(o), b.avail[o]
		if a.Node == cur.Node && max(a.Free, now) == max(cur.Free, now) {
			continue
		}
		b.prob.SetAvail(o, a)
	}
}

// problem assembles a one-shot batch problem for the given transactions at
// the given time, folding the already-scheduled transactions T^s into
// object availability (the paper's first basic modification of A). Used by
// the oracle engine; the session engine shares the same resolver through
// the live problem instead.
func (b *Bucket) problem(txns []*core.Transaction, now core.Time) *batch.Problem {
	avail := make(map[core.ObjID]batch.Avail)
	batch.ExtendAvail(avail, txns, b.resolve)
	return &batch.Problem{G: b.env.G, Now: now, Txns: txns, Avail: avail, Slow: b.slow}
}

// resolveAvail computes one object's availability (node, free-time) at
// the sim's current time: the last decided user's position once it frees
// the object, or its origin if it is yet to be created, or where it rests.
// An object with no decided user is never in transit: the sim moves an
// object only toward its head pending user, and a user commits only once
// every object it uses is at its node.
func (b *Bucket) resolveAvail(o core.ObjID) batch.Avail {
	sim := b.env.Sim
	if lastTx, lastExec, ok := sim.LastUser(o); ok {
		// LastUser only reports pending (undone) transactions, which are
		// always inside the live window — Txn cannot return nil here.
		return batch.Avail{Node: sim.Txn(lastTx).Node, Free: lastExec}
	}
	now := sim.Now()
	if obj := sim.Instance().Objects[o]; obj.Created > now {
		return batch.Avail{Node: obj.Origin, Free: obj.Created}
	}
	return batch.Avail{Node: sim.ObjectLocation(o).Node, Free: now}
}

var _ sched.Scheduler = (*Bucket)(nil)
