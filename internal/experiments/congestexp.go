package experiments

import (
	"fmt"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
	"dtm/internal/workload"
)

// capacities swept by figure12Congestion; 0 is the paper's unbounded model.
var f12Capacities = []int{0, 4, 2, 1}

// figure12Congestion implements the paper's concluding open problem: "it
// would be interesting to examine the impact of congestion, and the case
// where network links may also have bounded capacity". The scheduler plans
// capacity-obliviously (the paper's model); we then replay its decision log
// on a network whose links carry at most C objects at once, with elastic
// commits, and chart the makespan inflation as C tightens.
func figure12Congestion(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 12 — bounded link capacity (paper's open problem)",
		"graph", "workload", "capacity", "makespan", "inflation", "max latency")
	n := 6
	if cfg.Quick {
		n = 4
	}
	g, err := graph.Grid(n, n)
	if err != nil {
		return nil, err
	}
	workloads := []struct {
		name string
		pop  workload.Popularity
	}{
		{"uniform", workload.PopUniform},
		{"hotspot", workload.PopHotspot},
	}
	if cfg.Quick {
		workloads = workloads[:1]
	}
	var points []runner.Point
	for _, wl := range workloads {
		wl := wl
		points = append(points, runner.Point{
			// One cell per workload: plan once capacity-obliviously, then
			// replay the decision log at every capacity.
			Cells: []runner.Cell{{Name: wl.name, Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
				in, err := workload.Generate(g, workload.Config{
					K: 2, NumObjects: g.N() / 2, Rounds: 3,
					Arrival: workload.ArrivalPeriodic, Period: core.Time(g.Diameter()),
					Pop: wl.pop, Seed: seed,
				})
				if err != nil {
					return runner.Outcome{}, err
				}
				rr, err := sched.Run(in, newGreedy(), sched.Options{SnapshotEvery: -1, Obs: m})
				if err != nil {
					return runner.Outcome{}, err
				}
				out := runner.FromRunResult(rr)
				out.Extra = make(map[string]float64, 2*len(f12Capacities))
				for _, capacity := range f12Capacities {
					res, err := core.Replay(in, rr.Decisions, core.SimOptions{LinkCapacity: capacity}, nil)
					if err != nil {
						return runner.Outcome{}, fmt.Errorf("F12: capacity %d: %w", capacity, err)
					}
					out.Extra[fmt.Sprintf("mkspan_%d", capacity)] = float64(res.Makespan)
					out.Extra[fmt.Sprintf("maxlat_%d", capacity)] = float64(res.MaxLat)
				}
				return out, nil
			}}},
			Rows: func(cs []runner.Agg) ([][]string, error) {
				if err := runner.FirstErr(cs); err != nil {
					return nil, err
				}
				c := cs[0]
				base := c.X("mkspan_0").Mean
				var rows [][]string
				for _, capacity := range f12Capacities {
					label := fmt.Sprint(capacity)
					if capacity == 0 {
						label = "unbounded (paper)"
					}
					mk := c.X(fmt.Sprintf("mkspan_%d", capacity))
					rows = append(rows, []string{g.Name(), wl.name, label, c.Int(mk),
						c.F2(mk.Mean / base), c.Int(c.X(fmt.Sprintf("maxlat_%d", capacity)))})
				}
				return rows, nil
			},
		})
	}
	return runSweep(cfg, 1, t, points)
}
