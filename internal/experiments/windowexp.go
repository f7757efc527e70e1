package experiments

// T15 — the fourth engine head-to-head. Algorithm W (the randomized
// window-based greedy of Sharma/Estrade/Busch, arXiv:1002.4182) carries
// an O(s·log n) expected-makespan bound in s-bounded contention, a bound
// incomparable on paper to Algorithm 1's O(k·D_f) and Algorithm 2's
// O(b_A·log^3(nD)). This table makes the comparison empirical: the same
// canonical workloads on the line, cluster, and star, one row per
// algorithm, competitive ratios against the shared lower-bound estimate.
// The distributed protocol (Algorithm 3) computes its decisions by
// message passing with half-speed objects, so its ratio carries the
// decentralization overhead that Table 4 isolates.
//
// The final rows ask T14's open-system question of the new engine: the
// bisected stability frontier λ* for window on T14's graphs, directly
// comparable to the greedy/bucket frontiers in Table 14. Ratio columns
// and the λ* column never apply to the same row; inapplicable cells
// hold "-".

import (
	"fmt"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

func table15Window(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 15 — window-based greedy (Algorithm W) vs Algorithms 1–3",
		"graph", "scheduler", "max ratio", "±", "mean ratio", "makespan", "λ*")

	// Head-to-head graphs match Table 4's sizes so the Algorithm 3 rows
	// stay affordable under the message-passing driver.
	ratioGraphs := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(32) },
		func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 4, Beta: 4, Gamma: 4}) },
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 4, RayLen: 6}) },
	}
	if cfg.Quick {
		ratioGraphs = []func() (*graph.Graph, error){
			func() (*graph.Graph, error) { return graph.Line(12) },
			func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 2, Beta: 3, Gamma: 3}) },
			func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 3, RayLen: 3}) },
		}
	}
	type contender struct {
		name string
		mk   func(seed int64) sched.Scheduler
	}
	contenders := []contender{
		{"greedy (Alg 1)", func(int64) sched.Scheduler { return newGreedy() }},
		{"bucket-tour (Alg 2)", func(int64) sched.Scheduler { return newBucketTour() }},
		{"distributed (Alg 3)", newDistributed},
		{"window (Alg W)", func(int64) sched.Scheduler { return newWindow() }},
	}
	var points []runner.Point
	for _, mg := range ratioGraphs {
		g, err := mg()
		if err != nil {
			return nil, err
		}
		mkIn := func(seed int64) (*core.Instance, error) {
			return genUniform(g, 2, g.N()/2, 3, core.Time(g.Diameter())*2, seed)
		}
		for _, c := range contenders {
			c := c
			run := runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
				in, err := mkIn(seed)
				return in, c.mk(seed), err
			})
			points = append(points, runner.Point{
				Cells: []runner.Cell{{Name: fmt.Sprintf("%s/%s", g.Name(), c.name), Run: run}},
				Row: func(cs []runner.Agg) ([]string, error) {
					if err := runner.FirstErr(cs); err != nil {
						return nil, err
					}
					a := cs[0]
					return []string{g.Name(), c.name, a.F2(a.MaxRatio.Mean), a.Spread(a.MaxRatio),
						a.F2(a.MeanRatio.Mean), a.F1(a.Makespan.Mean), "-"}, nil
				},
			})
		}
	}

	// Stability-frontier rows: T14's bisection, graphs, and criterion,
	// applied to the window engine.
	for _, mg := range frontierGraphs(cfg) {
		g, err := mg()
		if err != nil {
			return nil, err
		}
		points = append(points, runner.Point{
			Cells: []runner.Cell{{
				Name: fmt.Sprintf("%s/window-frontier", g.Name()),
				Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
					rate, best, err := bisectFrontier(cfg, g, newWindow, seed, m)
					if err != nil {
						return runner.Outcome{}, err
					}
					return runner.Outcome{
						MaxLat:  float64(best.MaxSojourn),
						MeanLat: best.MeanSojourn,
						Extra:   map[string]float64{"lambda": rate},
					}, nil
				},
			}},
			Row: func(cs []runner.Agg) ([]string, error) {
				if err := runner.FirstErr(cs); err != nil {
					return nil, err
				}
				c := cs[0]
				return []string{g.Name(), "window (stream)", "-", "-", "-", "-",
					c.F("%.3f", c.X("lambda").Mean)}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}
