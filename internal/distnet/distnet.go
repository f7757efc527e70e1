// Package distnet is a synchronous message-passing runtime for the
// decentralized schedulers of Section V of Busch et al. (IPPS 2020): every
// node of the communication graph runs a deterministic event handler;
// messages between nodes are delivered after exactly their shortest-path
// distance in time steps (the paper's synchronous model, Section II).
//
// The engine processes each step's active nodes in ID order on one
// goroutine. Handlers own their node's state exclusively and act only
// through a per-invocation Ctx, whose outbox the engine merges into the
// event queue in node order, so a run is a deterministic function of its
// inputs and fault plan.
package distnet

import (
	"fmt"
	"reflect"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/pq"
)

// EventKind discriminates handler events.
type EventKind int

const (
	// KindMessage delivers a payload sent by another node.
	KindMessage EventKind = iota
	// KindWake fires a timer previously set with Ctx.WakeAt.
	KindWake
	// KindInject delivers an external input (e.g. a transaction arrival)
	// placed with Engine.InjectAt.
	KindInject
)

func (k EventKind) String() string {
	switch k {
	case KindMessage:
		return "msg"
	case KindWake:
		return "wake"
	case KindInject:
		return "inject"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is what a handler receives.
type Event struct {
	Kind    EventKind
	From    graph.NodeID // sender, for KindMessage
	Payload interface{}  // treat as immutable: it may be shared across nodes
}

// Handler is a node's protocol logic. HandleEvent must be deterministic and
// must touch only this node's state; cross-node interaction goes through
// Ctx.Send.
type Handler interface {
	HandleEvent(ctx *Ctx, ev Event)
}

// Ctx is the per-invocation capability a handler uses to act on the world.
type Ctx struct {
	g       *graph.Graph
	node    graph.NodeID
	now     core.Time
	out     []queuedEvent
	msgs    int
	dist    graph.Weight
	seqBase int64 // this node's running send count, for fault keying
}

// Node returns the executing node.
func (c *Ctx) Node() graph.NodeID { return c.node }

// Now returns the current time step.
func (c *Ctx) Now() core.Time { return c.now }

// Graph returns the communication graph (read-only use).
func (c *Ctx) Graph() *graph.Graph { return c.g }

// Dist is shorthand for shortest-path distance queries.
func (c *Ctx) Dist(u, v graph.NodeID) graph.Weight { return c.g.Dist(u, v) }

// Send transmits a payload to another node; it arrives Dist(from, to) steps
// from now (same step for the node itself, processed in a later pass).
func (c *Ctx) Send(to graph.NodeID, payload interface{}) {
	d := c.g.Dist(c.node, to)
	c.out = append(c.out, queuedEvent{
		at:     c.now + core.Time(d),
		node:   to,
		srcSeq: c.seqBase + int64(c.msgs),
		ev:     Event{Kind: KindMessage, From: c.node, Payload: payload},
	})
	c.msgs++
	c.dist += d
}

// WakeAt schedules a KindWake event for this node at time t >= now.
func (c *Ctx) WakeAt(t core.Time) {
	if t < c.now {
		t = c.now
	}
	c.out = append(c.out, queuedEvent{
		at:   t,
		node: c.node,
		ev:   Event{Kind: KindWake},
	})
}

type queuedEvent struct {
	at     core.Time
	node   graph.NodeID
	seq    int
	srcSeq int64 // index of this send among its source's sends (fault key)
	ev     Event
}

// lessQueued orders the event queue by (at, node, seq). seq is unique per
// push, so the order is total and the pop sequence does not depend on the
// heap's layout.
func lessQueued(a, b queuedEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.seq < b.seq
}

// Options configure an Engine.
type Options struct {
	// Faults injects deterministic message loss, duplication, delay jitter
	// and node crashes (see FaultPlan). The zero value keeps the engine on
	// the exact failure-free code path.
	Faults FaultPlan
	// Obs collects message, fault and queue metrics; it is the engine's
	// only count of them, and New refuses a nil one. All accounting
	// happens when the engine merges a node's outbox, so handlers pay
	// nothing.
	Obs *obs.Metrics
}

// engineMetrics holds the engine's instrument handles.
type engineMetrics struct {
	messages   *obs.Counter   // distnet.messages: total messages sent
	msgDist    *obs.Counter   // distnet.msg_distance: total distance covered, the protocol's communication cost
	msgBytes   *obs.Counter   // distnet.msg_bytes: shallow payload size sum
	injects    *obs.Counter   // distnet.injects: external events placed
	wakes      *obs.Counter   // distnet.wakes: timers scheduled
	dropped    *obs.Counter   // distnet.dropped: messages lost to drops and crash windows
	duplicated *obs.Counter   // distnet.duplicated: messages delivered twice
	delayed    *obs.Counter   // distnet.delayed: deliveries given extra jitter
	nodeQueue  *obs.Histogram // distnet.node_queue: events per node per step
}

func newEngineMetrics(m *obs.Metrics) engineMetrics {
	return engineMetrics{
		messages:   m.Counter(obs.NameDistnetMessages),
		msgDist:    m.Counter(obs.NameDistnetMsgDistance),
		msgBytes:   m.Counter(obs.NameDistnetMsgBytes),
		injects:    m.Counter(obs.NameDistnetInjects),
		wakes:      m.Counter(obs.NameDistnetWakes),
		dropped:    m.Counter(obs.NameDistnetDropped),
		duplicated: m.Counter(obs.NameDistnetDuplicated),
		delayed:    m.Counter(obs.NameDistnetDelayed),
		nodeQueue:  m.Histogram(obs.NameDistnetNodeQueue),
	}
}

// Engine drives the handlers through synchronous time.
type Engine struct {
	g        *graph.Graph
	handlers []Handler
	opts     Options
	faulty   bool

	now     core.Time
	queue   *pq.Heap[queuedEvent]
	seq     int
	sendSeq []int64 // per-node running send count (fault keying)

	met    engineMetrics
	byType map[reflect.Type]*obs.Counter // distnet.msg.<type> cache
	bySize map[reflect.Type]int64        // shallow payload size cache
}

// New builds an engine over g with one handler per node.
func New(g *graph.Graph, handlers []Handler, opts Options) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("distnet: nil graph")
	}
	if len(handlers) != g.N() {
		return nil, fmt.Errorf("distnet: %d handlers for %d nodes", len(handlers), g.N())
	}
	for i, h := range handlers {
		if h == nil {
			return nil, fmt.Errorf("distnet: nil handler for node %d", i)
		}
	}
	if opts.Obs == nil {
		return nil, fmt.Errorf("distnet: nil Options.Obs")
	}
	if err := opts.Faults.Validate(g.N()); err != nil {
		return nil, err
	}
	return &Engine{
		g: g, handlers: handlers, opts: opts,
		faulty:  opts.Faults.Enabled(),
		queue:   pq.New(lessQueued),
		sendSeq: make([]int64, g.N()),
		met:     newEngineMetrics(opts.Obs),
		byType:  make(map[reflect.Type]*obs.Counter),
		bySize:  make(map[reflect.Type]int64),
	}, nil
}

// accountMessage attributes one sent message to its payload type: a
// distnet.msg.<type> counter and a shallow byte estimate. Called from the
// outbox merge.
func (e *Engine) accountMessage(payload interface{}) {
	t := reflect.TypeOf(payload)
	c, ok := e.byType[t]
	if !ok {
		name := "nil"
		if t != nil {
			name = t.String()
		}
		c = e.opts.Obs.Counter(obs.NameDistnetMsg(name))
		e.byType[t] = c
		sz := int64(0)
		if t != nil {
			st := t
			for st.Kind() == reflect.Ptr {
				st = st.Elem()
			}
			sz = int64(st.Size())
		}
		e.bySize[t] = sz
	}
	c.Inc()
	e.met.msgBytes.Add(e.bySize[t])
}

// Now returns the engine clock.
func (e *Engine) Now() core.Time { return e.now }

// InjectAt places an external event for node at time t (>= now).
func (e *Engine) InjectAt(t core.Time, node graph.NodeID, payload interface{}) error {
	if t < e.now {
		return fmt.Errorf("distnet: inject at t=%d before now t=%d", t, e.now)
	}
	if node < 0 || int(node) >= e.g.N() {
		return fmt.Errorf("distnet: inject to unknown node %d", node)
	}
	e.push(queuedEvent{at: t, node: node, ev: Event{Kind: KindInject, Payload: payload}})
	e.met.injects.Inc()
	return nil
}

func (e *Engine) push(qe queuedEvent) {
	qe.seq = e.seq
	e.seq++
	e.queue.Push(qe)
}

// NextEvent reports the earliest pending event time.
func (e *Engine) NextEvent() (core.Time, bool) {
	if e.queue.Len() == 0 {
		return 0, false
	}
	return e.queue.Peek().at, true
}

// RunUntil processes every event with time <= t and advances the clock to t.
func (e *Engine) RunUntil(t core.Time) error {
	if t < e.now {
		return fmt.Errorf("distnet: cannot rewind from t=%d to t=%d", e.now, t)
	}
	for e.queue.Len() > 0 && e.queue.Peek().at <= t {
		at := e.queue.Peek().at
		e.now = at
		// Same-time self-sends and wakes spawn additional passes within
		// the step; bound them to catch ping-pong bugs.
		for pass := 0; e.queue.Len() > 0 && e.queue.Peek().at == at; pass++ {
			if pass > 10000 {
				return fmt.Errorf("distnet: livelock at t=%d: handlers keep generating same-step events", at)
			}
			if err := e.stepOnce(at); err != nil {
				return err
			}
		}
	}
	e.now = t
	return nil
}

// stepOnce pops one batch of events at time `at`, groups them per node,
// and invokes each node's handler in node order, merging its outbox into
// the queue before the next node runs.
func (e *Engine) stepOnce(at core.Time) error {
	type nodeBatch struct {
		node graph.NodeID
		evs  []Event
	}
	// The heap pops in (node, seq) order at equal times, so each node's
	// events arrive contiguously and in seq order.
	var batches []nodeBatch
	for e.queue.Len() > 0 && e.queue.Peek().at == at {
		qe := e.queue.Pop()
		if n := len(batches); n == 0 || batches[n-1].node != qe.node {
			batches = append(batches, nodeBatch{node: qe.node})
		}
		b := &batches[len(batches)-1]
		b.evs = append(b.evs, qe.ev)
	}
	for _, b := range batches {
		ctx := &Ctx{g: e.g, node: b.node, now: at, seqBase: e.sendSeq[b.node]}
		for _, ev := range b.evs {
			e.handlers[b.node].HandleEvent(ctx, ev)
		}
		// Merge the outbox in send order. Fault decisions resolve here,
		// keyed only on (step, src, dst, srcSeq).
		e.sendSeq[ctx.node] += int64(ctx.msgs)
		e.met.nodeQueue.Observe(int64(len(b.evs)))
		e.met.messages.Add(int64(ctx.msgs))
		e.met.msgDist.Add(int64(ctx.dist))
		for _, qe := range ctx.out {
			switch qe.ev.Kind {
			case KindMessage:
				e.accountMessage(qe.ev.Payload)
			case KindWake:
				e.met.wakes.Inc()
			}
		}
		for _, qe := range ctx.out {
			if e.faulty && qe.ev.Kind == KindMessage && qe.node != ctx.node {
				e.deliverFaulty(ctx.node, at, qe)
			} else {
				e.push(qe)
			}
		}
	}
	return nil
}

// deliverFaulty resolves the fault plan for one cross-node message sent by
// src at time `at`: loss (sender/receiver crash, drop coin),
// duplication, and bounded delay jitter per delivered copy.
func (e *Engine) deliverFaulty(src graph.NodeID, at core.Time, qe queuedEvent) {
	p := &e.opts.Faults
	dst := qe.node
	drop := p.CrashedAt(src, at) || (p.Drop > 0 && p.roll(saltDrop, at, src, dst, qe.srcSeq) < p.Drop)
	if drop {
		e.met.dropped.Inc()
		return
	}
	copies := 1
	if p.Duplicate > 0 && p.roll(saltDup, at, src, dst, qe.srcSeq) < p.Duplicate {
		copies = 2
		e.met.duplicated.Inc()
	}
	for c := 0; c < copies; c++ {
		cp := qe
		if d := p.jitter(saltJit+uint64(c), at, src, dst, qe.srcSeq); d > 0 {
			cp.at += d
			e.met.delayed.Inc()
		}
		if p.CrashedAt(dst, cp.at) {
			e.met.dropped.Inc()
			continue
		}
		e.push(cp)
	}
}
