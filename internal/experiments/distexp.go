package experiments

import (
	"fmt"

	"dtm/internal/core"
	"dtm/internal/distbucket"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
	"dtm/internal/workload"
)

// distCell runs the Algorithm 3 protocol as a sweep cell at the given
// slow factor (0: the protocol's own half speed), surfacing the protocol
// statistics through Extra.
func distCell(g *graph.Graph, slow int) runner.CellFunc {
	return func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
		in, err := genDistWorkload(g, seed)
		if err != nil {
			return runner.Outcome{}, err
		}
		p := distbucket.New(distbucket.Options{Seed: seed})
		rr, err := sched.Run(in, p, sched.Options{Sim: core.SimOptions{SlowFactor: slow}, Obs: m})
		if err != nil {
			return runner.Outcome{}, err
		}
		rep := p.Report()
		out := runner.FromRunResult(rr)
		out.Extra = map[string]float64{
			"messages":    float64(rr.Metrics.Counters[obs.NameDistnetMessages.String()]),
			"coverLayers": float64(rep.CoverLayers),
			"subLayers":   float64(rep.SubLayers),
		}
		return out, nil
	}
}

func genDistWorkload(g *graph.Graph, seed int64) (*core.Instance, error) {
	return workload.Generate(g, workload.Config{
		K: 2, NumObjects: g.N() / 2, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: core.Time(g.Diameter()) * 4,
		Seed: seed,
	})
}

// table4Distributed compares the centralized bucket schedule (Algorithm 2,
// zero-latency oracle) with the fully distributed protocol (Algorithm 3):
// Theorem 5 predicts decentralization costs an extra poly-log factor.
func table4Distributed(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 4 — distributed (Alg 3) vs centralized (Alg 2) bucket",
		"graph", "central max", "distrib max", "overhead", "central mkspan", "distrib mkspan", "messages", "cover layers", "sub-layers")
	graphs := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(32) },
		func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 4, Beta: 4, Gamma: 4}) },
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 4, RayLen: 6}) },
	}
	if cfg.Quick {
		graphs = graphs[:1]
	}
	var points []runner.Point
	for _, mk := range graphs {
		g, err := mk()
		if err != nil {
			return nil, err
		}
		points = append(points, runner.Point{
			Cells: []runner.Cell{
				// The centralized bucket runs with the same half-speed
				// objects so the comparison isolates the coordination
				// overhead.
				{Name: "central", Run: runner.SchedOpts(sched.Options{Sim: core.SimOptions{SlowFactor: 2}},
					func(seed int64) (*core.Instance, sched.Scheduler, error) {
						in, err := genDistWorkload(g, seed)
						return in, newBucketTour(), err
					})},
				{Name: "distrib", Run: distCell(g, 0)},
			},
			Row: func(cs []runner.Agg) ([]string, error) {
				if err := runner.FirstErr(cs); err != nil {
					return nil, err
				}
				central, dist := cs[0], cs[1]
				overhead := dist.MaxRatio.Mean / central.MaxRatio.Mean
				return []string{g.Name(), central.F2(central.MaxRatio.Mean), dist.F2(dist.MaxRatio.Mean),
					dist.F2(overhead), central.Int(central.Makespan), dist.Int(dist.Makespan),
					dist.Int(dist.X("messages")), dist.Int(dist.X("coverLayers")), dist.Int(dist.X("subLayers"))}, nil
			},
		})
	}
	return runSweep(cfg, 1, t, points)
}

// table5Coordinator measures the Section III-E funnel: the same greedy
// schedule with all knowledge routed through a hub node, predicted to cost
// a diameter-proportional factor.
func table5Coordinator(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 5 — hub coordinator overhead (Section III-E: O(diameter) factor)",
		"graph", "D", "oracle max lat", "coord max lat", "±", "lat overhead", "oracle max ratio", "coord max ratio")
	graphs := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Clique(32) },
		func() (*graph.Graph, error) { return graph.Hypercube(5) },
		func() (*graph.Graph, error) { return graph.Butterfly(3) },
	}
	if cfg.Quick {
		graphs = graphs[:1]
	}
	var points []runner.Point
	for _, mk := range graphs {
		g, err := mk()
		if err != nil {
			return nil, err
		}
		mkIn := func(seed int64) (*core.Instance, error) {
			return genUniform(g, 3, g.N(), 3, core.Time(g.Diameter())*2, seed)
		}
		points = append(points, runner.Point{
			Cells: []runner.Cell{
				{Name: "oracle", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
					in, err := mkIn(seed)
					return in, newGreedy(), err
				})},
				{Name: "coord", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
					in, err := mkIn(seed)
					return in, greedy.NewCoordinator(0, greedy.Options{}), err
				})},
			},
			Row: func(cs []runner.Agg) ([]string, error) {
				mo, mc := cs[0], cs[1]
				return []string{g.Name(), fmt.Sprint(g.Diameter()), mo.F1(mo.MaxLat.Mean),
					mc.F1(mc.MaxLat.Mean), mc.Spread(mc.MaxLat), mc.F2(mc.MaxLat.Mean / mo.MaxLat.Mean),
					mo.F2(mo.MaxRatio.Mean), mc.F2(mc.MaxRatio.Mean)}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// figure9HalfSpeed ablates the Section V half-speed device: both speeds
// stay feasible under the home directory, and halving costs at most ~2x.
func figure9HalfSpeed(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 9 — object speed ablation (Section V: objects at half speed)",
		"speed", "makespan", "max ratio", "mean ratio", "messages")
	n := 6
	if cfg.Quick {
		n = 4
	}
	g, err := graph.Grid(n, n)
	if err != nil {
		return nil, err
	}
	labels := []string{"full (1x)", "half (paper, 2x per edge)"}
	points := []runner.Point{{
		Cells: []runner.Cell{
			{Name: labels[0], Run: distCell(g, 1)},
			{Name: labels[1], Run: distCell(g, 2)},
		},
		Rows: func(cs []runner.Agg) ([][]string, error) {
			if err := runner.FirstErr(cs); err != nil {
				return nil, err
			}
			if cs[1].Makespan.Mean < cs[0].Makespan.Mean {
				return nil, fmt.Errorf("F9: half-speed makespan %.0f below full-speed %.0f",
					cs[1].Makespan.Mean, cs[0].Makespan.Mean)
			}
			var rows [][]string
			for i, c := range cs {
				rows = append(rows, []string{labels[i], c.Int(c.Makespan), c.F2(c.MaxRatio.Mean),
					c.F2(c.MeanRatio.Mean), c.Int(c.X("messages"))})
			}
			return rows, nil
		},
	}}
	return runSweep(cfg, 1, t, points)
}
