// Noc: the network-on-chip scenario from the paper's introduction — a
// butterfly interconnect (Section III-D's O(k log n) architecture) where
// cores issue transactions against mobile cache-line-like objects. Shows
// both greedy modes (Theorem 1 general weights vs Theorem 2 uniform-β
// overlay) and then replays the winner on links with bounded capacity (the
// paper's concluding open problem, implemented in this library).
package main

import (
	"fmt"
	"log"

	"dtm"
)

func main() {
	const dim = 4
	g, err := dtm.Butterfly(dim)
	if err != nil {
		log.Fatal(err)
	}
	in, err := dtm.Generate(g, dtm.WorkloadConfig{
		K:          3,
		NumObjects: g.N() / 2,
		Rounds:     3,
		Arrival:    dtm.ArrivalPoisson,
		Period:     4,
		Pop:        dtm.PopZipf, // skewed: a few hot cache lines
		Seed:       21,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("butterfly dim=%d: n=%d, diameter=%d, %d transactions, Zipf-hot objects\n\n",
		dim, g.N(), g.Diameter(), len(in.Txns))

	general, err := dtm.Run(in, dtm.NewGreedy(dtm.GreedyOptions{}), dtm.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	uniform, err := dtm.Run(in, dtm.NewGreedy(dtm.GreedyOptions{Uniform: true}), dtm.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-34s %10s %12s %10s\n", "scheduler", "makespan", "mean latency", "max ratio")
	fmt.Printf("%-34s %10d %12.1f %10.2f\n", general.Scheduler, general.Makespan, general.MeanLat(), general.MaxRatio)
	fmt.Printf("%-34s %10d %12.1f %10.2f\n", uniform.Scheduler, uniform.Makespan, uniform.MeanLat(), uniform.MaxRatio)
	fmt.Println("\n(Theorem 2's uniform-β overlay pays a constant factor over Theorem 1's")
	fmt.Println(" general-weight coloring — the paper's own practical remark.)")

	// Replay the general schedule on capacity-bounded links.
	fmt.Printf("\n%-22s %10s %10s\n", "link capacity", "makespan", "inflation")
	base := general.Makespan
	for _, c := range []int{0, 2, 1} {
		res, err := dtm.Replay(in, general.Decisions, dtm.SimOptions{LinkCapacity: c})
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprint(c)
		if c == 0 {
			label = "unbounded (paper)"
		}
		fmt.Printf("%-22s %10d %10.2f\n", label, res.Makespan, float64(res.Makespan)/float64(base))
	}
	fmt.Println("\nhot objects funnel through shared switch links: congestion bites as C -> 1")
}
