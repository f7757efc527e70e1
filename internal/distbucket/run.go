package distbucket

import (
	"fmt"
	"math/bits"
	"sort"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/cover"
	"dtm/internal/distnet"
	"dtm/internal/graph"
	"dtm/internal/sched"
)

// Options configure a distributed bucket run. The embedded sched.Options
// carries the driver knobs shared with the central drivers — Sim (whose
// SlowFactor here defaults to the paper's Section V value 2: control
// messages at full speed, objects at half), SnapshotEvery, and Obs.
type Options struct {
	sched.Options
	// Batch is the offline algorithm A to convert. Nil means batch.Tour,
	// the paper's TSP-tour batch scheduler.
	Batch batch.Scheduler
	// Seed drives the randomized sparse cover construction, and doubles as
	// the fault plan's RNG seed when Faults.Plan.Seed is left 0.
	Seed int64
	// MaxLevel caps bucket levels; 0 means the Lemma 3 bound.
	MaxLevel int
	// Faults injects deterministic network faults and configures the
	// recovery layer. The zero value is the paper's failure-free model.
	Faults FaultOptions
}

// FaultOptions bundles the injected network fault plan with the recovery
// layer's retry knobs.
type FaultOptions struct {
	// Plan describes the unreliable network (see distnet.FaultPlan). A
	// zero plan disables fault injection and the recovery layer entirely.
	Plan distnet.FaultPlan
	// RetrySlack is the base backoff step added to a request's worst-case
	// round trip before the first retry; it doubles per consecutive
	// unanswered attempt. 0 means 2 steps.
	RetrySlack core.Time
	// BackoffCap bounds the exponential backoff. 0 means 64 steps.
	BackoffCap core.Time
	// MaxAttempts is how many consecutive unanswered attempts a request
	// survives before the protocol gives up on it (abandoning the
	// transaction or session). 0 means 30.
	MaxAttempts int
}

// Result bundles the run metrics with protocol statistics. The embedded
// sched.RunResult carries the shared result surface (Metrics, Failed, Err,
// Decisions, Abandoned, CompletionRate) so callers consume one shape across
// the central and distributed drivers.
type Result struct {
	*sched.RunResult
	Audit       Audit
	Messages    int
	MsgDistance graph.Weight
	CoverLayers int
	SubLayers   int
	// Abandoned details the transactions the run gave up on under faults
	// (sorted by ID), with per-transaction reasons; the bare IDs are also
	// mirrored into RunResult.Abandoned. Empty on fault-free runs.
	Abandoned []AbandonedTx
	// Lemma 6 audit: pairs of concurrently-live conflicting transactions
	// that reported into the same sub-layer, and how many of those landed
	// in different clusters (the paper proves zero under chase-based
	// discovery; the home-directory substitution can miss concurrent
	// discoveries, which is why safety here rests on home reservations
	// instead — see the package comment).
	Lemma6Pairs      int
	Lemma6Violations int
}

// Run executes Algorithm 3 on the instance: the network protocol computes
// every scheduling decision with real message latencies while the core
// engine enforces object physics at the configured slow factor, in
// lockstep. The protocol runs as a sched.Scheduler under sched.Run, so it
// shares the central drivers' event loop, completion check and result.
func Run(in *core.Instance, opts Options) (*Result, error) {
	if opts.Batch == nil {
		opts.Batch = batch.Tour{}
	}
	if opts.Sim.SlowFactor == 0 {
		opts.Sim.SlowFactor = 2
	}
	p, err := newProtocol(in, opts)
	if err != nil {
		return nil, err
	}
	rr, err := sched.Run(in, p, opts.Options)
	if rr == nil {
		return nil, err
	}
	res := &Result{
		RunResult:   rr,
		Audit:       Audit{LayerCounts: make(map[int]int)},
		Messages:    p.net.MessagesSent(),
		MsgDistance: p.net.MessageDistance(),
		CoverLayers: p.cfg.hier.NumLayers(),
		SubLayers:   p.cfg.hier.MaxSubLayers(),
		Abandoned:   p.abandoned(),
	}
	for _, nd := range p.nodes {
		res.Audit.merge(nd.audit)
	}
	if err == nil {
		res.Lemma6Pairs, res.Lemma6Violations = lemma6Audit(in, p.sim, p.nodes)
	}
	return res, err
}

// newProtocol builds a run's sparse cover, nodes and network.
func newProtocol(in *core.Instance, opts Options) (*protocol, error) {
	plan := opts.Faults.Plan
	if plan.Enabled() && plan.Seed == 0 {
		plan.Seed = opts.Seed
	}
	slow := opts.Sim.SlowFactor
	hier, err := cover.Build(in.G, opts.Seed)
	if err != nil {
		return nil, err
	}
	maxLevel := opts.MaxLevel
	if maxLevel <= 0 {
		nd := uint64(in.G.N()) * uint64(in.G.Diameter()) * uint64(slow)
		if nd < 2 {
			nd = 2
		}
		maxLevel = bits.Len64(nd-1) + 1
	}
	cfg := &config{
		in:          in,
		g:           in.G,
		hier:        hier,
		batch:       opts.Batch,
		slow:        graph.Weight(slow),
		maxLevel:    maxLevel,
		met:         newProtoMetrics(opts.Obs),
		obs:         opts.Obs,
		faulty:      plan.Enabled(),
		maxJitter:   plan.MaxJitter,
		slack:       defaultTime(opts.Faults.RetrySlack, 2),
		backoffCap:  defaultTime(opts.Faults.BackoffCap, 64),
		maxAttempts: defaultInt(opts.Faults.MaxAttempts, 30),
	}
	p := &protocol{name: fmt.Sprintf("distbucket(%s)", opts.Batch.Name()), cfg: cfg, plan: plan,
		nodes: make([]*node, in.G.N())}
	handlers := make([]distnet.Handler, in.G.N())
	for i := range p.nodes {
		p.nodes[i] = newNode(cfg, graph.NodeID(i))
		handlers[i] = p.nodes[i]
	}
	p.net, err = distnet.New(in.G, handlers, distnet.Options{Faults: plan, Obs: opts.Obs})
	return p, err
}

// protocol adapts the message network to sched.Scheduler. Arrivals are
// injected at their origins; every callback runs the network up to the
// driver's clock and applies the decisions the nodes announced, in node
// order. Nodes never read the sim, so the driver need not stop at its
// internal events.
type protocol struct {
	name  string
	cfg   *config
	plan  distnet.FaultPlan
	net   *distnet.Engine
	nodes []*node
	sim   *core.Sim
	// crashed records arrivals at crashed origins, which the driver gives
	// up on itself; node handlers record their own abandoned transactions.
	crashed []AbandonedTx
}

func (p *protocol) Name() string { return p.name }

func (p *protocol) Start(env *sched.Env) error {
	p.sim = env.Sim
	return nil
}

func (p *protocol) OnArrive(txns []*core.Transaction) error {
	now := p.sim.Now()
	for _, tx := range txns {
		if p.plan.CrashedAt(tx.Node, now) {
			// The origin is down when its transaction arrives: with no
			// process to start discovery, the transaction is reported
			// abandoned rather than silently lost.
			p.crashed = append(p.crashed, AbandonedTx{
				Tx:     tx.ID,
				Reason: fmt.Sprintf("origin node %d crashed at arrival t=%d", tx.Node, now),
			})
			p.cfg.met.abandoned.Inc()
			continue
		}
		if err := p.net.InjectAt(now, tx.Node, arrivalMsg{Tx: tx.ID}); err != nil {
			return err
		}
	}
	return p.OnWake()
}

// NextWake is the network's next event while a transaction is still to
// execute. The step of the last commit still runs the network: the
// protocol stops once every transaction executed before the current step.
func (p *protocol) NextWake() (core.Time, bool) {
	if _, last, _, _ := p.sim.CommitStats(); p.sim.AllExecuted() && last < p.sim.Now() {
		return 0, false
	}
	return p.net.NextEvent()
}

func (p *protocol) OnWake() error {
	if err := p.net.RunUntil(p.sim.Now()); err != nil {
		return err
	}
	for _, nd := range p.nodes {
		for _, d := range nd.decisions {
			if err := p.sim.Decide(d.tx, d.exec); err != nil {
				return fmt.Errorf("distbucket: applying decision for tx %d: %w", d.tx, err)
			}
		}
		nd.decisions = nd.decisions[:0]
	}
	return nil
}

// Abandoned lists the IDs of the transactions the protocol gave up on, for
// the driver's completion check and RunResult.Abandoned.
func (p *protocol) Abandoned() []core.TxID {
	var ids []core.TxID
	for _, a := range p.abandoned() {
		ids = append(ids, a.Tx)
	}
	return ids
}

// abandoned merges the crashed-origin arrivals and every node's abandoned
// transactions, drops any that were scheduled after all (a lost ack can
// make an origin give up on a transaction its leader still scheduled),
// dedups, and sorts by ID for determinism.
func (p *protocol) abandoned() []AbandonedTx {
	seen := make(map[core.TxID]bool)
	var ab []AbandonedTx
	add := func(a AbandonedTx) {
		if _, ok := p.sim.Scheduled(a.Tx); ok || seen[a.Tx] {
			return
		}
		seen[a.Tx] = true
		ab = append(ab, a)
	}
	for _, a := range p.crashed {
		add(a)
	}
	for _, nd := range p.nodes {
		for _, a := range nd.abandoned {
			add(a)
		}
	}
	sort.Slice(ab, func(i, j int) bool { return ab[i].Tx < ab[j].Tx })
	return ab
}

func defaultTime(v, def core.Time) core.Time {
	if v > 0 {
		return v
	}
	return def
}

func defaultInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// lemma6Audit counts concurrently-live conflicting transaction pairs that
// chose the same sub-layer, and how many of those chose different clusters.
func lemma6Audit(in *core.Instance, sim *core.Sim, nodes []*node) (pairs, violations int) {
	refs := make(map[core.TxID]clusterRef)
	for _, nd := range nodes {
		for tx, ref := range nd.reported {
			refs[tx] = ref
		}
	}
	type span struct{ a, b core.Time }
	live := func(tx *core.Transaction) span {
		e, _ := sim.Executed(tx.ID)
		return span{a: tx.Arrival, b: e}
	}
	for i := 0; i < len(in.Txns); i++ {
		ri, ok := refs[in.Txns[i].ID]
		if !ok {
			continue
		}
		si := live(in.Txns[i])
		for j := i + 1; j < len(in.Txns); j++ {
			rj, ok := refs[in.Txns[j].ID]
			if !ok || !in.Txns[i].Conflicts(in.Txns[j]) {
				continue
			}
			sj := live(in.Txns[j])
			if si.b < sj.a || sj.b < si.a {
				continue // never live together
			}
			if ri.Layer == rj.Layer && ri.SubLayer == rj.SubLayer {
				pairs++
				if ri.Index != rj.Index {
					violations++
				}
			}
		}
	}
	return pairs, violations
}
