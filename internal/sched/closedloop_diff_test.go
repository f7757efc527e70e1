package sched_test

// Differential pin of the closed-loop driver, case by case: every
// RunClosedLoop run on the engine_diff grid must reproduce its reference
// digest in driverGoldens — decision logs, results, metric snapshots,
// emitted event streams, ratio traces and the generated instance itself
// (the arrival process feeds back through commit times, so any drift
// compounds into a different workload). The digests were computed on the
// closed-loop driver while it was still pinned byte-identical to the
// pre-unification reference driver; each is a schedule half and an obs
// half, as in TestDriverGoldens.

import (
	"strings"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/sched"
)

func diffTopologies(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	return map[string]*graph.Graph{
		"line":    mk(graph.Line(12)),
		"clique":  mk(graph.Clique(12)),
		"grid":    mk(graph.Grid(4, 3)),
		"cluster": mk(graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4})),
	}
}

func clConfig(g *graph.Graph, seed int64) sched.ClosedLoopConfig {
	numObjects := 8
	objects := make([]*core.Object, numObjects)
	for i := range objects {
		objects[i] = &core.Object{ID: core.ObjID(i), Origin: graph.NodeID((i*5 + int(seed)) % g.N())}
	}
	return sched.ClosedLoopConfig{
		Objects: objects,
		Rounds:  3,
		Gen: func(node graph.NodeID, round int) []core.ObjID {
			a := core.ObjID((int(node) + round + int(seed)) % numObjects)
			b := core.ObjID((int(node)*5 + round*7 + int(seed)*3 + 1) % numObjects)
			if a == b {
				b = (b + 1) % core.ObjID(numObjects)
			}
			if a > b {
				a, b = b, a
			}
			return []core.ObjID{a, b}
		},
	}
}

func TestClosedLoopMatchesRef(t *testing.T) {
	got := goldenTable{}
	goldenClosedLoop(t, got)
	for name, want := range driverGoldens {
		sub, ok := strings.CutPrefix(name, "closed-loop/")
		if !ok {
			continue
		}
		t.Run(sub, func(t *testing.T) {
			if have := got[name]; have != want {
				t.Errorf("digests {%q, %q}, reference {%q, %q}", have.sched, have.obs, want.sched, want.obs)
			}
		})
	}
}
