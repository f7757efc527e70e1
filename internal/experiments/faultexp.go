package experiments

import (
	"fmt"

	"dtm/internal/distbucket"
	"dtm/internal/distnet"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

// faultCell runs the Algorithm 3 protocol under an injected fault plan
// with the given drop probability, surfacing recovery statistics through
// Extra. The plan is seeded per trial, so averaging over trials also
// averages over fault realizations.
func faultCell(g *graph.Graph, drop float64) runner.CellFunc {
	return func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
		in, err := genDistWorkload(g, seed)
		if err != nil {
			return runner.Outcome{}, err
		}
		p := distbucket.New(distbucket.Options{
			Seed:   seed,
			Faults: distbucket.FaultOptions{Plan: distnet.FaultPlan{Seed: seed, Drop: drop}},
		})
		rr, err := sched.Run(in, p, sched.Options{Obs: m})
		if err != nil {
			return runner.Outcome{}, fmt.Errorf("drop %.0f%%: %w", drop*100, err)
		}
		c := rr.Metrics.Counters
		out := runner.FromRunResult(rr)
		out.Extra = map[string]float64{
			"messages":   float64(c[obs.NameDistnetMessages.String()]),
			"completion": rr.CompletionRate(),
			"abandoned":  float64(len(rr.Abandoned)),
			"dropped":    float64(c[obs.NameDistnetDropped.String()]),
			"retries":    float64(c[obs.NameDistbucketRetries.String()]),
		}
		return out, nil
	}
}

// table11Faults measures graceful degradation: the Algorithm 3 protocol on
// an unreliable network at increasing message-drop rates. The claim under
// test is the recovery layer's contract — every run terminates with each
// transaction either executed or explicitly abandoned — plus the price
// paid: retries inflate message counts, and the competitive ratio (over
// the completed transactions) drifts up with the loss rate.
func table11Faults(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 11 — Algorithm 3 under message loss (fault injection)",
		"graph", "drop", "max ratio", "makespan", "completion", "messages", "msg overhead", "dropped", "retries", "abandoned")
	drops := []float64{0, 0.01, 0.05, 0.10}
	graphs := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(32) },
		func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 4, Beta: 4, Gamma: 4}) },
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 4, RayLen: 6}) },
	}
	if cfg.Quick {
		graphs = graphs[:1]
		drops = []float64{0, 0.05}
	}
	var points []runner.Point
	for _, mk := range graphs {
		g, err := mk()
		if err != nil {
			return nil, err
		}
		cells := make([]runner.Cell, len(drops))
		for i, d := range drops {
			cells[i] = runner.Cell{Name: fmt.Sprintf("drop %g%%", d*100), Run: faultCell(g, d)}
		}
		localDrops := drops
		points = append(points, runner.Point{
			Cells: cells,
			Rows: func(cs []runner.Agg) ([][]string, error) {
				if err := runner.FirstErr(cs); err != nil {
					return nil, err
				}
				base := cs[0].X("messages").Mean
				var rows [][]string
				for i, c := range cs {
					rows = append(rows, []string{
						g.Name(), fmt.Sprintf("%g%%", localDrops[i]*100),
						c.F2(c.MaxRatio.Mean), c.Int(c.Makespan),
						c.F("%.3f", c.X("completion").Mean),
						c.Int(c.X("messages")), c.F2(c.X("messages").Mean / base),
						c.Int(c.X("dropped")), c.Int(c.X("retries")), c.Int(c.X("abandoned")),
					})
				}
				return rows, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}
