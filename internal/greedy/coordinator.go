package greedy

import (
	"fmt"
	"sort"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/sched"
)

// Coordinator is the "simple centralized online scheduler" of Section III-E:
// a designated hub node collects arrivals and runs the greedy schedule.
// Funnelling knowledge through one node costs a diameter-proportional
// factor, modeled as two latencies a zero-latency oracle does not pay:
//
//   - a transaction arriving at node v at time t is scheduled only at
//     t + dist(v, hub), once its report reaches the hub;
//   - its execution time is floored by dist(hub, v), since the decision
//     must travel back before the transaction can act on it.
//
// Everything else — the extended dependency graph, Lemma 1 coloring — is
// exactly the Greedy scheduler. Coordinator implements sched.Scheduler.
type Coordinator struct {
	Hub   graph.NodeID
	inner *Greedy
	env   *sched.Env
	queue map[core.Time][]*core.Transaction
}

// NewCoordinator returns a Section III-E coordinator scheduler centered at
// hub, running the greedy schedule with the given options.
func NewCoordinator(hub graph.NodeID, opts Options) *Coordinator {
	inner := New(opts)
	inner.hub = &hub
	return &Coordinator{
		Hub:   hub,
		inner: inner,
		queue: make(map[core.Time][]*core.Transaction),
	}
}

// Name implements sched.Scheduler.
func (c *Coordinator) Name() string {
	return fmt.Sprintf("coordinator(hub=%d,%s)", c.Hub, c.inner.Name())
}

// Start implements sched.Scheduler.
func (c *Coordinator) Start(env *sched.Env) error {
	if c.Hub < 0 || int(c.Hub) >= env.G.N() {
		return fmt.Errorf("coordinator: hub %d out of range", c.Hub)
	}
	c.env = env
	return c.inner.Start(env)
}

// OnArrive implements sched.Scheduler: each transaction's report reaches
// the hub after dist(node, hub) steps.
func (c *Coordinator) OnArrive(txns []*core.Transaction) error {
	now := c.env.Sim.Now()
	for _, tx := range txns {
		due := now + core.Time(c.env.G.Dist(tx.Node, c.Hub))
		c.queue[due] = append(c.queue[due], tx)
	}
	return nil
}

// NextWake implements sched.Scheduler.
func (c *Coordinator) NextWake() (core.Time, bool) {
	// The inner greedy scheduler may itself defer (uniform epochs).
	best, have := c.inner.NextWake()
	for due := range c.queue {
		if !have || due < best {
			best, have = due, true
		}
	}
	return best, have
}

// OnWake implements sched.Scheduler: schedule the reports that have reached
// the hub by now, in deterministic ID order.
func (c *Coordinator) OnWake() error {
	now := c.env.Sim.Now()
	var due []*core.Transaction
	for t, txns := range c.queue {
		if t <= now {
			due = append(due, txns...)
			delete(c.queue, t)
		}
	}
	if len(due) > 0 {
		sort.Slice(due, func(i, j int) bool { return due[i].ID < due[j].ID })
		if err := c.inner.OnArrive(due); err != nil {
			return err
		}
	}
	// Forward the wake to the inner scheduler if it was waiting.
	if w, ok := c.inner.NextWake(); ok && w <= now {
		return c.inner.OnWake()
	}
	return nil
}

var _ sched.Scheduler = (*Coordinator)(nil)
