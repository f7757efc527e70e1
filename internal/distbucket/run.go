package distbucket

import (
	"fmt"
	"sort"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/cover"
	"dtm/internal/distnet"
	"dtm/internal/graph"
	"dtm/internal/sched"
)

// Options configure the Algorithm 3 protocol. Driver knobs (object speed,
// snapshots, metrics) go to sched.Run, as for every other engine.
type Options struct {
	// Batch is the offline algorithm A to convert. Nil means batch.Tour,
	// the paper's TSP-tour batch scheduler.
	Batch batch.Scheduler
	// Seed drives the randomized sparse cover construction, and doubles as
	// the fault plan's RNG seed when Faults.Plan.Seed is left 0.
	Seed int64
	// Faults injects deterministic network faults and configures the
	// recovery layer. The zero value is the paper's failure-free model.
	Faults FaultOptions
}

// FaultOptions bundles the injected network fault plan with the recovery
// layer's retry budget.
type FaultOptions struct {
	// Plan describes the unreliable network (see distnet.FaultPlan). A
	// zero plan disables fault injection and the recovery layer entirely.
	Plan distnet.FaultPlan
	// MaxAttempts is how many consecutive unanswered attempts a request
	// survives before the protocol gives up on it (abandoning the
	// transaction or session). 0 means 30.
	MaxAttempts int
}

// Report holds what a run's protocol knows beyond sched.RunResult: the
// sparse cover's shape, the abandoned transactions with their reasons and
// the post-run Lemma 6 audit. What the protocol did as it ran (messages,
// reports, insertions, activations, levels, cover layers, faults) is
// counted only in the run's obs registry, the distnet.* and distbucket.*
// instruments of RunResult.Metrics.
type Report struct {
	CoverLayers int
	SubLayers   int
	// Abandoned details the transactions the run gave up on under faults
	// (sorted by ID), with per-transaction reasons; the bare IDs are also
	// in RunResult.Abandoned. Empty on fault-free runs.
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

// Protocol runs Algorithm 3 as a sched.Scheduler: the network protocol
// computes every scheduling decision with real message latencies while the
// sim enforces object physics, in lockstep. Arrivals are injected at their
// origins; every callback runs the network up to the driver's clock and
// applies the decisions the nodes announced, in node order. Nodes never
// read the sim's state, so the driver need not stop at its internal
// events.
type Protocol struct {
	opts  Options
	cfg   *config
	plan  distnet.FaultPlan
	net   *distnet.Engine
	nodes []*node
	sim   *core.Sim
	// crashed records arrivals at crashed origins, which the driver gives
	// up on itself; node handlers record their own abandoned transactions.
	crashed []AbandonedTx
}

// New returns the Algorithm 3 protocol. It builds nothing until Start,
// which derives the sparse cover, the nodes and the network from the run.
func New(opts Options) *Protocol {
	if opts.Batch == nil {
		opts.Batch = batch.Tour{}
	}
	return &Protocol{opts: opts}
}

func (p *Protocol) Name() string { return fmt.Sprintf("distbucket(%s)", p.opts.Batch.Name()) }

// SlowFactor is the object speed the protocol runs at unless the driver's
// core.SimOptions.SlowFactor says otherwise: half speed, the Section V
// device that lets full-speed control messages outrun objects.
func (p *Protocol) SlowFactor() int { return 2 }

// Start builds the run's sparse cover, nodes and network.
func (p *Protocol) Start(env *sched.Env) error {
	in := env.Sim.Instance()
	plan := p.opts.Faults.Plan
	if plan.Enabled() && plan.Seed == 0 {
		plan.Seed = p.opts.Seed
	}
	hier, err := cover.Build(in.G, p.opts.Seed)
	if err != nil {
		return err
	}
	slow := graph.Weight(env.Sim.SlowFactor())
	maxLevel, err := bucket.MaxLevel(in.G, slow)
	if err != nil {
		return err
	}
	cfg := &config{
		in:          in,
		sim:         env.Sim,
		g:           in.G,
		hier:        hier,
		batch:       p.opts.Batch,
		slow:        slow,
		maxLevel:    maxLevel,
		met:         newProtoMetrics(env.Obs),
		obs:         env.Obs,
		faulty:      plan.Enabled(),
		maxJitter:   plan.MaxJitter,
		maxAttempts: defaultInt(p.opts.Faults.MaxAttempts, 30),
	}
	p.cfg, p.plan, p.sim, p.crashed = cfg, plan, env.Sim, nil
	p.nodes = make([]*node, in.G.N())
	handlers := make([]distnet.Handler, in.G.N())
	for i := range p.nodes {
		p.nodes[i] = newNode(cfg, graph.NodeID(i))
		handlers[i] = p.nodes[i]
	}
	p.net, err = distnet.New(in.G, handlers, distnet.Options{Faults: plan, Obs: env.Obs})
	return err
}

func (p *Protocol) OnArrive(txns []*core.Transaction) error {
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
func (p *Protocol) NextWake() (core.Time, bool) {
	if _, last, _, _ := p.sim.CommitStats(); p.sim.AllExecuted() && last < p.sim.Now() {
		return 0, false
	}
	return p.net.NextEvent()
}

func (p *Protocol) OnWake() error {
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
func (p *Protocol) Abandoned() []core.TxID {
	var ids []core.TxID
	for _, a := range p.abandoned() {
		ids = append(ids, a.Tx)
	}
	return ids
}

// Report returns the statistics of the run the protocol last started;
// read it after the driver returns. The zero Report before any run.
func (p *Protocol) Report() Report {
	if p.net == nil {
		return Report{}
	}
	r := Report{
		CoverLayers: p.cfg.hier.NumLayers(),
		SubLayers:   p.cfg.hier.MaxSubLayers(),
		Abandoned:   p.abandoned(),
	}
	r.Lemma6Pairs, r.Lemma6Violations = lemma6Audit(p.sim, p.nodes)
	return r
}

// abandoned merges the crashed-origin arrivals and every node's abandoned
// transactions, drops any that were scheduled after all (a lost ack can
// make an origin give up on a transaction its leader still scheduled),
// dedups, and sorts by ID for determinism.
func (p *Protocol) abandoned() []AbandonedTx {
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

func defaultInt(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// lemma6Audit counts concurrently-live conflicting transaction pairs that
// chose the same sub-layer, and how many of those chose different clusters.
func lemma6Audit(sim *core.Sim, nodes []*node) (pairs, violations int) {
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
	txns := sim.Instance().Txns
	for i := 0; i < len(txns); i++ {
		ri, ok := refs[txns[i].ID]
		if !ok {
			continue
		}
		si := live(txns[i])
		for j := i + 1; j < len(txns); j++ {
			rj, ok := refs[txns[j].ID]
			if !ok || !txns[i].Conflicts(txns[j]) {
				continue
			}
			sj := live(txns[j])
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
