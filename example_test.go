package dtm_test

import (
	"fmt"
	"log"

	"dtm"
)

// ExampleRun schedules a small clique workload with the online greedy
// schedule (Algorithm 1) and prints the verified execution metrics.
func ExampleRun() {
	g, err := dtm.Clique(8)
	if err != nil {
		log.Fatal(err)
	}
	in, err := dtm.Generate(g, dtm.WorkloadConfig{
		K: 2, NumObjects: 8, Rounds: 2,
		Arrival: dtm.ArrivalPeriodic, Period: 2, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	rr, err := dtm.Run(in, dtm.NewGreedy(dtm.GreedyOptions{}), dtm.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transactions: %d\n", len(in.Txns))
	fmt.Printf("makespan: %d\n", rr.Makespan)
	fmt.Printf("all decisions replay: %v\n", replayOK(in, rr))
	// Output:
	// transactions: 16
	// makespan: 7
	// all decisions replay: true
}

func replayOK(in *dtm.Instance, rr *dtm.RunResult) bool {
	_, err := dtm.Replay(in, rr.Decisions, dtm.SimOptions{})
	return err == nil
}

// ExampleRunStream drives the open-system streaming mode: a seeded
// Poisson source pulled lazily by the bounded-memory driver, which
// retires committed transactions from the live window as it goes. The
// run is fully deterministic, so its metrics can be pinned.
func ExampleRunStream() {
	g, err := dtm.Clique(8)
	if err != nil {
		log.Fatal(err)
	}
	src, err := dtm.NewPoissonSource(g, dtm.StreamConfig{
		K: 2, NumObjects: 8, Rate: 0.5, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := dtm.RunStream(g, dtm.UniformObjects(g, 8, 1), src,
		dtm.NewGreedy(dtm.GreedyOptions{}), dtm.StreamOptions{MaxArrivals: 2000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("completed: %d of %d arrivals\n", res.Completed, res.Arrivals)
	fmt.Printf("sojourn p95: %d\n", res.SojournP95)
	fmt.Printf("window bounded: %v (retired %v)\n",
		res.WindowPeak < res.Arrivals/2, res.Retired > 0)
	// Output:
	// completed: 2000 of 2000 arrivals
	// sojourn p95: 2
	// window bounded: true (retired true)
}

// ExampleReplay validates a hand-written schedule against the execution
// model: an object at node 0 of a line must physically reach its user.
func ExampleReplay() {
	g, err := dtm.Line(6)
	if err != nil {
		log.Fatal(err)
	}
	in := &dtm.Instance{
		G:       g,
		Objects: []*dtm.Object{{ID: 0, Origin: 0}},
		Txns:    []*dtm.Transaction{{ID: 0, Node: 5, Objects: []dtm.ObjID{0}}},
	}
	if _, err := dtm.Replay(in, []dtm.Decision{{Tx: 0, Exec: 5, At: 0}}, dtm.SimOptions{}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("exec at t=5: feasible (distance 5)")
	_, err = dtm.Replay(in, []dtm.Decision{{Tx: 0, Exec: 4, At: 0}}, dtm.SimOptions{})
	fmt.Printf("exec at t=4: %v\n", err != nil)
	// Output:
	// exec at t=5: feasible (distance 5)
	// exec at t=4: true
}

// ExampleNewBucket converts an offline batch algorithm into an online
// scheduler (Algorithm 2) on a large-diameter line graph.
func ExampleNewBucket() {
	g, err := dtm.Line(32)
	if err != nil {
		log.Fatal(err)
	}
	in, err := dtm.Generate(g, dtm.WorkloadConfig{
		K: 2, NumObjects: 16, Rounds: 2,
		Arrival: dtm.ArrivalPeriodic, Period: 40, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	s := dtm.NewBucket(dtm.BucketOptions{Batch: dtm.TourBatch()})
	rr, err := dtm.Run(in, s, dtm.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler: %s\n", rr.Scheduler)
	fmt.Printf("scheduled everything: %v\n", len(rr.Decisions) == len(in.Txns))
	// Output:
	// scheduler: bucket(tour-batch)
	// scheduled everything: true
}
