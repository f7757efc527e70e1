package experiments

// T12 — the incremental-engine scaling sweep. The depgraph-backed engine
// and the rebuild oracle must produce identical schedules at every scale;
// this experiment verifies that up to n=1024 while recording the index
// workload (peak live vertices, posting edges served). Wall-clock
// comparisons live outside the experiment tables (they would break the
// runner's byte-identical parallel/sequential contract): `dtmbench
// -perfjson` (`make bench-quick`) measures ns/arrival and allocs/arrival
// for the same workloads in BENCH_perf.json.

import (
	"fmt"

	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

func table12Scale(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 12 — incremental conflict-index engine vs rebuild oracle at scale (greedy, clique)",
		"n", "txns", "makespan", "identical", "peak live", "edges served")
	ns := []int{16, 64, 256, 1024}
	if cfg.Quick {
		ns = []int{16, 64}
	}
	k := 3
	var points []runner.Point
	for _, n := range ns {
		g, err := graph.Clique(n)
		if err != nil {
			return nil, err
		}
		n := n
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: fmt.Sprintf("n=%d", n), Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
				in, err := genUniform(g, k, n, 3, 2, seed)
				if err != nil {
					return runner.Outcome{}, err
				}
				// Snapshots are disabled: the lower-bound estimates they
				// take per arrival dominate the cost at n=1024 and play no
				// role in the engine-equivalence claim.
				inc, err := sched.Run(in, greedy.New(greedy.Options{}),
					sched.Options{Obs: m, SnapshotEvery: -1})
				if err != nil {
					return runner.Outcome{}, err
				}
				orc, err := sched.Run(in, greedy.New(greedy.Options{RebuildOracle: true}),
					sched.Options{SnapshotEvery: -1})
				if err != nil {
					return runner.Outcome{}, err
				}
				identical := 1.0
				if len(inc.Decisions) != len(orc.Decisions) {
					identical = 0
				} else {
					for i := range inc.Decisions {
						if inc.Decisions[i] != orc.Decisions[i] {
							identical = 0
							break
						}
					}
				}
				out := runner.FromRunResult(inc)
				snap := inc.Metrics
				out.Extra = map[string]float64{
					"identical":    identical,
					"txns":         float64(len(in.Txns)),
					"peak_live":    float64(snap.Gauges["depgraph.live_vertices"].Max),
					"edges_served": float64(snap.Counters["depgraph.edges_reused"]),
				}
				return out, nil
			}}},
			Row: func(cs []runner.Agg) ([]string, error) {
				c := cs[0]
				ident := "yes"
				if c.X("identical").Mean < 1 {
					ident = "DIFF"
				}
				return []string{fmt.Sprint(n), c.Int(c.X("txns")), c.Int(c.Makespan),
					ident, c.Int(c.X("peak_live")), c.Int(c.X("edges_served"))}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}
