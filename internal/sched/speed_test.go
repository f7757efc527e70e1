package sched_test

import (
	"fmt"
	"testing"

	"dtm/internal/core"
	"dtm/internal/engine"
	"dtm/internal/greedy"
	"dtm/internal/sched"
)

// TestEnginesPlanAtRunSpeed runs every registry engine, the rebuild oracle
// of every engine that keeps one, and padded greedy in both modes at half
// and a third of full object speed on unbounded links, over the golden
// topologies and workloads. An H'_t edge weighs the time an object needs
// to cross it, so each run must finish, and its decisions must replay
// through core.Replay at the speed the run used: an engine that weighed
// travel at full speed would decide commits its objects cannot reach.
func TestEnginesPlanAtRunSpeed(t *testing.T) {
	type variant struct {
		name string
		mk   func() sched.Scheduler
	}
	var variants []variant
	for _, d := range engine.All() {
		variants = append(variants, variant{d.ID, d.New})
		if d.Oracle != nil {
			variants = append(variants, variant{d.ID + "-rebuild", d.Oracle})
		}
	}
	variants = append(variants,
		variant{"greedy-pad2", func() sched.Scheduler { return greedy.New(greedy.Options{Pad: 2}) }},
		variant{"greedy-uniform-pad2", func() sched.Scheduler { return greedy.New(greedy.Options{Uniform: true, Pad: 2}) }},
	)
	for topo, g := range diffTopologies(t) {
		for _, v := range variants {
			for _, slow := range []int{2, 3} {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/slow%d/seed%d", topo, v.name, slow, seed)
					in := goldenInstance(t, g, 3, seed)
					opts := core.SimOptions{SlowFactor: slow}
					rr, err := sched.Run(in, v.mk(), sched.Options{Sim: opts, SnapshotEvery: -1})
					if err != nil {
						t.Errorf("%s: %v", name, err)
						continue
					}
					if rr.SlowFactor != slow {
						t.Errorf("%s: ran at slow factor %d", name, rr.SlowFactor)
					}
					if _, err := core.Replay(in, rr.Decisions, opts, nil); err != nil {
						t.Errorf("%s: replay: %v", name, err)
					}
				}
			}
		}
	}
}
