package core_test

import (
	"fmt"
	"testing"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/engine"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// TestLegsMatchHops replays the decision logs of the driver golden grid
// (internal/sched's TestDriverGoldens: every registry engine and the
// five feature-knob variants, on its four topologies and three seeds,
// plus closed-loop greedy and bucket-tour runs) through Sim and the
// frozen per-hop reference, comparing them at every step (see
// CompareLegsHops).
func TestLegsMatchHops(t *testing.T) {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	topos := []*graph.Graph{
		mk(graph.Line(12)),
		mk(graph.Clique(12)),
		mk(graph.Grid(4, 3)),
		mk(graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4})),
	}
	type run struct {
		name string
		mk   func() sched.Scheduler
		sim  core.SimOptions
	}
	var runs []run
	for _, d := range engine.All() {
		runs = append(runs, run{d.ID, d.New, core.SimOptions{}})
	}
	runs = append(runs,
		run{"greedy-pad2", func() sched.Scheduler { return greedy.New(greedy.Options{Pad: 2}) }, core.SimOptions{}},
		run{"greedy-slow", func() sched.Scheduler { return greedy.New(greedy.Options{}) }, core.SimOptions{SlowFactor: 2}},
		run{"greedy-linkcap", func() sched.Scheduler { return greedy.New(greedy.Options{}) }, core.SimOptions{LinkCapacity: 1}},
		run{"bucket-random-suffix", func() sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.WithSuffixProperty(batch.Randomized{Seed: 42, Tries: 3})})
		}, core.SimOptions{}},
		run{"bucket-tour-slow", func() sched.Scheduler { return bucket.New(bucket.Options{Batch: batch.Tour{}}) },
			core.SimOptions{SlowFactor: 2}},
	)
	for _, g := range topos {
		for _, r := range runs {
			for seed := int64(1); seed <= 3; seed++ {
				in, err := workload.Generate(g, workload.Config{
					K: 2, NumObjects: 6, Rounds: 3,
					Arrival: workload.ArrivalPoisson, Period: 3, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Run(fmt.Sprintf("run/%s/%s/seed%d", g.Name(), r.name, seed), func(t *testing.T) {
					rr, err := sched.Run(in, r.mk(), sched.Options{Sim: r.sim, SnapshotEvery: -1})
					if err != nil {
						t.Fatal(err)
					}
					opts := r.sim
					opts.SlowFactor = rr.SlowFactor
					core.CompareLegsHops(t, in, rr.Decisions, opts)
				})
			}
		}
		for _, r := range runs {
			if r.name != "greedy" && r.name != "bucket-tour" {
				continue
			}
			t.Run(fmt.Sprintf("closed-loop/%s/%s", g.Name(), r.name), func(t *testing.T) {
				objs := make([]*core.Object, 8)
				for i := range objs {
					objs[i] = &core.Object{ID: core.ObjID(i), Origin: graph.NodeID(i * 5 % g.N())}
				}
				cfg := sched.ClosedLoopConfig{Objects: objs, Rounds: 3,
					Gen: func(node graph.NodeID, round int) []core.ObjID {
						a, b := core.ObjID((int(node)+round)%8), core.ObjID((int(node)*5+round*7+1)%8)
						if a == b {
							b = (b + 1) % 8
						}
						return core.NormalizeObjects([]core.ObjID{a, b})
					}}
				rr, in, err := sched.RunClosedLoop(g, cfg, r.mk(), sched.Options{SnapshotEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				core.CompareLegsHops(t, in, rr.Decisions, core.SimOptions{})
			})
		}
	}
}
