// Quickstart: build a communication graph, generate a dynamic workload,
// run the paper's online greedy scheduler (Algorithm 1), and read the
// execution metrics and the measured competitive ratio.
package main

import (
	"fmt"
	"log"

	"dtm"
)

func main() {
	// A 16-node complete graph: every pair of nodes one hop apart
	// (the setting of Theorem 3, where greedy is O(k)-competitive).
	g, err := dtm.Clique(16)
	if err != nil {
		log.Fatal(err)
	}

	// Every node issues 4 transactions over time (one every 2 steps);
	// each transaction reads/writes 3 of the 16 mobile shared objects.
	in, err := dtm.Generate(g, dtm.WorkloadConfig{
		K:          3,
		NumObjects: 16,
		Rounds:     4,
		Arrival:    dtm.ArrivalPeriodic,
		Period:     2,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Run Algorithm 1. The engine moves objects along shortest paths and
	// fails loudly if the schedule were ever infeasible, so a returned
	// result is a verified execution.
	rr, err := dtm.Run(in, dtm.NewGreedy(dtm.GreedyOptions{}), dtm.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("scheduler:        %s\n", rr.Scheduler)
	fmt.Printf("transactions:     %d\n", len(in.Txns))
	fmt.Printf("makespan:         %d steps\n", rr.Makespan)
	fmt.Printf("max latency:      %d steps\n", rr.MaxLat)
	fmt.Printf("mean latency:     %.1f steps\n", rr.MeanLat())
	fmt.Printf("object travel:    %d (total communication cost)\n", rr.TotalComm)
	fmt.Printf("competitive:      max %.2f / mean %.2f (vs computed OPT lower bound)\n",
		rr.MaxRatio, rr.MeanRatio())

	// Theorem 3 says the ratio is O(k); with k=3 expect a small constant.
	if rr.MaxRatio > 3*3 {
		log.Fatalf("ratio %.2f is far beyond the O(k) expectation", rr.MaxRatio)
	}
	fmt.Println("within the Theorem 3 O(k) envelope ✓")

	// The finite API above is one case of the streaming one: wrap the same
	// instance in the finite-instance Source adapter and the bounded-memory
	// open-system driver (RunStream) produces the same execution, while
	// also reporting sojourn-latency percentiles and retiring committed
	// transactions from the live window as it goes. This adapter is the
	// recommended path for new code; generative sources (NewPoissonSource,
	// NewBurstySource) stream unbounded workloads through the same driver —
	// see examples/streaming.
	sr, err := dtm.RunStream(g, in.Objects, dtm.NewInstanceSource(in),
		dtm.NewGreedy(dtm.GreedyOptions{}), dtm.StreamOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("streamed:         %d arrivals, makespan %d (matches: %v)\n",
		sr.Arrivals, sr.Makespan, sr.Makespan == rr.Makespan)
	fmt.Printf("sojourn:          p50 %d / p95 %d / max %d steps\n",
		sr.SojournP50, sr.SojournP95, sr.MaxSojourn)
}
