package distbucket

import (
	"testing"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

func TestLemma6AuditReported(t *testing.T) {
	g, _ := graph.Grid(5, 5)
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 8, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 30, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOpts(in, Options{Batch: batch.Tour{}, Seed: 4}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The audit must have examined at least one conflicting pair on this
	// contended workload, and violations are bounded by pairs.
	if res.Lemma6Pairs == 0 {
		t.Error("Lemma 6 audit saw no conflicting same-sub-layer pairs")
	}
	if res.Lemma6Violations > res.Lemma6Pairs {
		t.Errorf("violations %d exceed pairs %d", res.Lemma6Violations, res.Lemma6Pairs)
	}
}

func TestSequentialArrivalsSatisfyLemma6(t *testing.T) {
	// When conflicting transactions arrive far apart, the second's
	// discovery always sees the first in the home registry, so the paper's
	// Lemma 6 must hold exactly: zero violations.
	g, _ := graph.Line(16)
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: 8}},
	}
	for i := 0; i < 4; i++ {
		in.Txns = append(in.Txns, &core.Transaction{
			ID:      core.TxID(i),
			Node:    graph.NodeID(i * 5),
			Arrival: core.Time(i * 400), // far beyond any schedule tail
			Objects: []core.ObjID{0},
		})
	}
	res, err := runOpts(in, Options{Batch: batch.Tour{}, Seed: 9}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Lemma6Violations != 0 {
		t.Errorf("sequential arrivals produced %d Lemma 6 violations", res.Lemma6Violations)
	}
}
