package greedy

import (
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

func TestCoordinatorFeasibleAndSlower(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 8, Rounds: 4,
		Arrival: workload.ArrivalPeriodic, Period: 4, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := sched.Run(in, New(Options{}), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := sched.Run(in, NewCoordinator(0, Options{}), sched.Options{})
	if err != nil {
		t.Fatalf("coordinator run failed: %v", err)
	}
	// Funnelling through the hub can only add latency.
	if coord.MaxLat < oracle.MaxLat {
		t.Errorf("coordinator max latency %d below oracle %d", coord.MaxLat, oracle.MaxLat)
	}
	// Section III-E: the overhead is proportional to the diameter; allow a
	// generous envelope (diameter multiples plus constant factor).
	limit := oracle.MaxLat*4 + 8*core.Time(g.Diameter())
	if coord.MaxLat > limit {
		t.Errorf("coordinator max latency %d exceeds envelope %d", coord.MaxLat, limit)
	}
}

func TestCoordinatorHonorsNotificationFloor(t *testing.T) {
	// A single transaction far from the hub: its execution cannot precede
	// request + decision travel.
	g, err := graph.Line(16)
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: 15}},
		Txns:    []*core.Transaction{{ID: 0, Node: 15, Objects: []core.ObjID{0}}},
	}
	rr, err := sched.Run(in, NewCoordinator(0, Options{}), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Request to hub: 15 steps; decision back: 15 steps.
	if rr.Makespan < 30 {
		t.Errorf("makespan = %d, want >= 30 (two hub trips)", rr.Makespan)
	}
}

func TestCoordinatorRejectsBadHub(t *testing.T) {
	g, _ := graph.Line(4)
	in, _ := workload.SingleObjectChain(g, 0)
	if _, err := sched.Run(in, NewCoordinator(99, Options{}), sched.Options{}); err == nil {
		t.Fatal("out-of-range hub: want error")
	}
}

func TestCoordinatorUniformMode(t *testing.T) {
	g, err := graph.Hypercube(3)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 6, Rounds: 3,
		Arrival: workload.ArrivalPeriodic, Period: 5, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCoordinator(0, Options{Uniform: true})
	rr, err := sched.Run(in, c, sched.Options{Obs: obs.New()})
	if err != nil {
		t.Fatalf("uniform coordinator failed: %v", err)
	}
	checkBound(t, c.Name(), in, rr)
}
