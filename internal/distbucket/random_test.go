package distbucket

import (
	"testing"

	"dtm/internal/batch"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// The protocol must be correct on arbitrary weighted topologies, not just
// the paper's named ones: random connected graphs with random weights,
// multiple seeds, both batch algorithms. The core engine (at half speed)
// is the feasibility oracle.
func TestRandomTopologies(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g, err := graph.RandomConnected(12+int(seed)*3, 10+int(seed)*2, 3, seed)
		if err != nil {
			t.Fatal(err)
		}
		in, err := workload.Generate(g, workload.Config{
			K: 2, NumObjects: 6, Rounds: 2,
			Arrival: workload.ArrivalPoisson, Period: 20, Seed: seed + 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []batch.Scheduler{batch.Tour{}, batch.List{}} {
			res, err := runOpts(in, Options{Batch: a, Seed: seed}, sched.Options{})
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, a.Name(), err)
			}
			if res.Err != nil {
				t.Fatalf("seed %d, %s: violation: %v", seed, a.Name(), res.Err)
			}
			if n := res.count(obs.NameDistbucketInsertions); n != int64(len(in.Txns)) {
				t.Errorf("seed %d, %s: inserted %d of %d", seed, a.Name(), n, len(in.Txns))
			}
		}
	}
}

// Bursty arrivals hammer concurrent discovery and overlapping sessions.
func TestBurstyArrivals(t *testing.T) {
	g, err := graph.Grid(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 8, Rounds: 4,
		Arrival: workload.ArrivalBursty, Period: 8, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runOpts(in, Options{Batch: batch.List{}, Seed: 5}, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("violation: %v", res.Err)
	}
}
