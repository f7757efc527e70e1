package experiments

import (
	"fmt"
	"math"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

// table1Summary reproduces the paper's Contributions list: one canonical
// run per topology with the scheduler the paper prescribes for it.
func table1Summary(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 1 — competitive ratio by topology (measured vs claimed)",
		"topology", "n", "D", "scheduler", "k", "max ratio", "±", "mean ratio", "paper bound")
	scale := 1
	if cfg.Quick {
		scale = 2
	}
	k := 4
	rows := []struct {
		mkGraph func() (*graph.Graph, error)
		mkSched func() sched.Scheduler
		bound   string
	}{
		{func() (*graph.Graph, error) { return graph.Clique(64 / scale) }, newGreedy, "O(k)"},
		{func() (*graph.Graph, error) { return graph.Hypercube(6 - scale + 1) }, newGreedy, "O(k log n)"},
		{func() (*graph.Graph, error) { return graph.Butterfly(4 - scale + 1) }, newGreedy, "O(k log n)"},
		{func() (*graph.Graph, error) { return graph.Grid(2, 2, 2, 2, 2, 2) }, newGreedy, "O(k log n)"},
		{func() (*graph.Graph, error) { return graph.Line(128 / scale) }, newBucketTour, "O(log^3 n)"},
		{func() (*graph.Graph, error) {
			return graph.Cluster(graph.ClusterSpec{Alpha: 8 / scale, Beta: 8, Gamma: 8})
		}, newBucketTour, "O(min(kβ,log_c^k m)·log^3(nγ))"},
		{func() (*graph.Graph, error) {
			return graph.Star(graph.StarSpec{Rays: 8 / scale, RayLen: 16 / scale})
		}, newBucketTour, "O(log β·min(kβ,log_c^k m)·log^3 n)"},
	}
	var points []runner.Point
	for _, row := range rows {
		g, err := row.mkGraph()
		if err != nil {
			return nil, err
		}
		mkSched := row.mkSched
		bound := row.bound
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: g.Name(), Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
				in, err := genUniform(g, k, g.N(), 3, core.Time(g.Diameter())*4, seed)
				return in, mkSched(), err
			})}},
			Row: func(cs []runner.Agg) ([]string, error) {
				c := cs[0]
				if c.Err != nil {
					return nil, fmt.Errorf("T1 %s: %w", g, c.Err)
				}
				return []string{g.Name(), fmt.Sprint(g.N()), fmt.Sprint(g.Diameter()), mkSched().Name(),
					fmt.Sprint(k), c.F2(c.MaxRatio.Mean), c.Spread(c.MaxRatio), c.F2(c.MeanRatio.Mean), bound}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// figure1CliqueK sweeps k on a fixed clique: Theorem 3 predicts the ratio
// grows at most linearly in k (ratio/k roughly flat or falling).
func figure1CliqueK(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 1 — clique: competitive ratio vs k (Theorem 3: O(k))",
		"k", "max ratio", "±", "mean ratio", "max ratio / k")
	n := 64
	ks := []int{1, 2, 4, 8, 16}
	if cfg.Quick {
		n = 16
		ks = []int{1, 4, 8}
	}
	g, err := graph.Clique(n)
	if err != nil {
		return nil, err
	}
	var points []runner.Point
	for _, k := range ks {
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: fmt.Sprintf("k=%d", k), Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
				in, err := genUniform(g, k, n, 4, 2, seed)
				return in, newGreedy(), err
			})}},
			Row: func(cs []runner.Agg) ([]string, error) {
				c := cs[0]
				return []string{fmt.Sprint(k), c.F2(c.MaxRatio.Mean), c.Spread(c.MaxRatio),
					c.F2(c.MeanRatio.Mean), c.F2(c.MaxRatio.Mean / float64(k))}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// figure2CliqueN sweeps n on the clique at fixed k: the ratio must stay
// flat (no dependence on n).
func figure2CliqueN(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 2 — clique: competitive ratio vs n (Theorem 3: independent of n)",
		"n", "max ratio", "±", "mean ratio")
	ns := []int{8, 16, 32, 64, 128, 256, 512}
	if cfg.Quick {
		ns = []int{8, 32, 128}
	}
	k := 4
	var points []runner.Point
	for _, n := range ns {
		g, err := graph.Clique(n)
		if err != nil {
			return nil, err
		}
		n := n
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: fmt.Sprintf("n=%d", n), Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
				in, err := genUniform(g, k, n, 3, 2, seed)
				return in, newGreedy(), err
			})}},
			Row: func(cs []runner.Agg) ([]string, error) {
				c := cs[0]
				return []string{fmt.Sprint(n), c.F2(c.MaxRatio.Mean), c.Spread(c.MaxRatio), c.F2(c.MeanRatio.Mean)}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// figure3Hypercube sweeps the hypercube dimension, comparing the Theorem 1
// general-weight greedy with the Theorem 2 uniform-β overlay (β = log n).
func figure3Hypercube(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 3 — hypercube: ratio vs n (Section III-D: O(k log n))",
		"dim", "n", "greedy max", "±", "uniform-β max", "greedy max/(k log n)")
	dims := []int{3, 4, 5, 6, 7, 8, 9, 10}
	if cfg.Quick {
		dims = []int{3, 4, 5, 6}
	}
	k := 4
	var points []runner.Point
	for _, d := range dims {
		g, err := graph.Hypercube(d)
		if err != nil {
			return nil, err
		}
		d := d
		mkIn := func(seed int64) (*core.Instance, error) {
			return genUniform(g, k, g.N(), 3, core.Time(d), seed)
		}
		points = append(points, runner.Point{
			Cells: []runner.Cell{
				{Name: "greedy", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
					in, err := mkIn(seed)
					return in, newGreedy(), err
				})},
				{Name: "uniform", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
					in, err := mkIn(seed)
					return in, newGreedyUniform(), err
				})},
			},
			Row: func(cs []runner.Agg) ([]string, error) {
				mg, mu := cs[0], cs[1]
				norm := mg.MaxRatio.Mean / (float64(k) * math.Log2(float64(g.N())))
				return []string{fmt.Sprint(d), fmt.Sprint(g.N()), mg.F2(mg.MaxRatio.Mean), mg.Spread(mg.MaxRatio),
					mu.F2(mu.MaxRatio.Mean), mg.F2(norm)}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// figure4ButterflyGrid repeats the sweep on the other O(log n)-diameter
// architectures of Section III-D.
func figure4ButterflyGrid(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 4 — butterfly and log n-dim grid: ratio vs n (Section III-D: O(k log n))",
		"graph", "n", "D", "max ratio", "±", "max ratio/(k log n)")
	k := 4
	bDims := []int{2, 3, 4, 5, 6}
	gDims := []int{3, 4, 5, 6, 7, 8}
	if cfg.Quick {
		bDims = []int{2, 3}
		gDims = []int{3, 5}
	}
	var graphs []*graph.Graph
	for _, d := range bDims {
		g, err := graph.Butterfly(d)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	for _, d := range gDims {
		dims := make([]int, d)
		for i := range dims {
			dims[i] = 2
		}
		g, err := graph.Grid(dims...)
		if err != nil {
			return nil, err
		}
		graphs = append(graphs, g)
	}
	var points []runner.Point
	for _, g := range graphs {
		g := g
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: g.Name(), Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
				in, err := genUniform(g, k, g.N(), 3, core.Time(g.Diameter()), seed)
				return in, newGreedy(), err
			})}},
			Row: func(cs []runner.Agg) ([]string, error) {
				c := cs[0]
				norm := c.MaxRatio.Mean / (float64(k) * math.Log2(float64(g.N())))
				return []string{g.Name(), fmt.Sprint(g.N()), fmt.Sprint(g.Diameter()),
					c.F2(c.MaxRatio.Mean), c.Spread(c.MaxRatio), c.F2(norm)}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// table2GreedyBounds audits the Theorem 1/2 per-transaction inequalities on
// every scheduled transaction across mixed topologies and workloads. Any
// violation is an error, not a table row.
func table2GreedyBounds(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 2 — Theorem 1/2 per-transaction bound audit",
		"graph", "mode", "scheduled", "within bound", "max color", "max bound")
	type cse struct {
		mk      func() (*graph.Graph, error)
		uniform bool
	}
	cases := []cse{
		{func() (*graph.Graph, error) { return graph.Clique(24) }, false},
		{func() (*graph.Graph, error) { return graph.Hypercube(5) }, false},
		{func() (*graph.Graph, error) { return graph.Hypercube(5) }, true},
		{func() (*graph.Graph, error) { return graph.Butterfly(3) }, false},
		{func() (*graph.Graph, error) { return graph.Line(40) }, false},
		{func() (*graph.Graph, error) { return graph.RandomConnected(30, 40, 4, 7) }, false},
	}
	var points []runner.Point
	for _, c := range cases {
		g, err := c.mk()
		if err != nil {
			return nil, err
		}
		uniform := c.uniform
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: g.Name(), Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
				gs := greedy.New(greedy.Options{Uniform: uniform})
				in, err := genUniform(g, 3, g.N(), 3, core.Time(g.Diameter()), seed)
				if err != nil {
					return runner.Outcome{}, err
				}
				rr, err := sched.Run(in, gs, sched.Options{Obs: m})
				if err != nil {
					return runner.Outcome{}, err
				}
				c, h := rr.Metrics.Counters, rr.Metrics.Histograms
				scheduled, within := c[obs.NameGreedyColorsAssigned.String()], c[obs.NameGreedyWithinBound.String()]
				if within != scheduled {
					return runner.Outcome{}, fmt.Errorf("T2: %s %s: %d/%d transactions exceeded the theorem bound",
						g, gs.Name(), scheduled-within, scheduled)
				}
				out := runner.FromRunResult(rr)
				out.Extra = map[string]float64{
					"scheduled": float64(scheduled),
					"within":    float64(within),
					"maxColor":  float64(h[obs.NameGreedyColor.String()].Max),
					"maxBound":  float64(h[obs.NameGreedyBound.String()].Max),
				}
				return out, nil
			}}},
			Row: func(cs []runner.Agg) ([]string, error) {
				if err := runner.FirstErr(cs); err != nil {
					return nil, err
				}
				a := cs[0]
				mode := "thm1"
				if uniform {
					mode = "thm2"
				}
				return []string{g.Name(), mode, a.Int(a.X("scheduled")), a.Int(a.X("within")),
					a.Int(a.X("maxColor")), a.Int(a.X("maxBound"))}, nil
			},
		})
	}
	return runSweep(cfg, 1, t, points)
}
