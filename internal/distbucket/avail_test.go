package distbucket

import (
	"fmt"
	"strings"
	"testing"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/distnet"
	"dtm/internal/graph"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// availCheck runs the protocol with every node handler wrapped so that,
// after each event a node handles, the node's live probe map holds
// exactly its knowledge: every entry equals resolveKnown. setKnown is the
// one writer of known that keeps the two equal; a write that bypassed it
// would leave a probe session reading an outdated entry.
type availCheck struct {
	*Protocol
	t      *testing.T
	name   string
	checks int
}

// Start builds the protocol, then rebuilds its network over the wrapped
// handlers (the same graph, plan and registry Start used).
func (c *availCheck) Start(env *sched.Env) error {
	if err := c.Protocol.Start(env); err != nil {
		return err
	}
	hs := make([]distnet.Handler, len(c.nodes))
	for i, nd := range c.nodes {
		hs[i] = checkedNode{nd, c}
	}
	var err error
	c.net, err = distnet.New(env.G, hs, distnet.Options{Faults: c.plan, Obs: env.Obs})
	return err
}

type checkedNode struct {
	*node
	c *availCheck
}

func (n checkedNode) HandleEvent(ctx *distnet.Ctx, ev distnet.Event) {
	n.node.HandleEvent(ctx, ev)
	for o, a := range n.probeAvail {
		if want := n.resolveKnown(o); a != want {
			n.c.t.Fatalf("%s: node %d at t=%d after %T: probe entry for object %d is %+v, knowledge %+v",
				n.c.name, n.id, ctx.Now(), ev.Payload, o, a, want)
		}
	}
	n.c.checks++
}

// TestProbeAvailMatchesKnowledge runs the availCheck over the sched
// golden topologies, with faults off and under the golden fault plans,
// for the Tour and Coloring batch schedulers.
func TestProbeAvailMatchesKnowledge(t *testing.T) {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	topos := map[string]*graph.Graph{
		"line":    mk(graph.Line(12)),
		"clique":  mk(graph.Clique(12)),
		"grid":    mk(graph.Grid(4, 3)),
		"cluster": mk(graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4})),
	}
	plans := map[string]FaultOptions{
		"none":   {},
		"lossy":  {Plan: distnet.FaultPlan{Seed: 11, Drop: 0.05, Duplicate: 0.03, MaxJitter: 2}},
		"drop40": {Plan: distnet.FaultPlan{Seed: 5, Drop: 0.4}, MaxAttempts: 6},
		"crashed": {Plan: distnet.FaultPlan{Crashes: []distnet.CrashWindow{
			{Node: 1, From: 0, To: 1 << 30},
			{Node: 4, From: 3, To: 40},
		}}},
	}
	for topo, g := range topos {
		for pn, plan := range plans {
			for _, bs := range []batch.Scheduler{batch.Tour{}, batch.Coloring{}} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/%s/seed%d", topo, pn, bs.Name(), seed)
					in, err := workload.Generate(g, workload.Config{
						K: 2, NumObjects: 6, Rounds: 2,
						Arrival: workload.ArrivalPoisson, Period: 3, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					c := &availCheck{Protocol: New(Options{Batch: bs, Seed: seed, Faults: plan}), t: t, name: name}
					if _, err := sched.Run(in, c, sched.Options{SnapshotEvery: -1}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if c.checks == 0 {
						t.Fatalf("%s: no node event was checked", name)
					}
				}
			}
		}
	}
}

// TestHugeWeightsNoPanic runs a 4-node path with edges of weight 2^59,
// where Lemma 3's n·D·slow product needs level 65, under every batch
// scheduler: Start must refuse the graph, naming Lemma 3, rather than run
// with a wrapped level count or announce wrapped execution times.
func TestHugeWeightsNoPanic(t *testing.T) {
	var links []graph.Link
	for v := graph.NodeID(0); v < 3; v++ {
		links = append(links, graph.Link{U: v, V: v + 1, W: 1 << 59})
	}
	g := graph.MustNew(4, links)
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: 0}, {ID: 1, Origin: 3}},
		Txns: []*core.Transaction{
			{ID: 0, Node: 3, Objects: []core.ObjID{0}},
			{ID: 1, Node: 0, Objects: []core.ObjID{0, 1}},
			{ID: 2, Node: 1, Arrival: 1, Objects: []core.ObjID{1}},
		},
	}
	batches := []batch.Scheduler{
		batch.Tour{}, batch.Coloring{}, batch.List{},
		batch.Randomized{Seed: 1},
		batch.WithSuffixProperty(batch.Tour{}),
	}
	for _, bs := range batches {
		rr, err := sched.Run(in, New(Options{Batch: bs, Seed: 1}), sched.Options{})
		if rr != nil || err == nil || !strings.Contains(err.Error(), "start: bucket: ") || !strings.Contains(err.Error(), "Lemma 3") {
			t.Errorf("%s: err = %v, want a refusal at start naming Lemma 3", bs.Name(), err)
		}
	}
}
