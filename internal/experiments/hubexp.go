package experiments

import (
	"fmt"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

// table10HubPlacement varies the Section III-E coordinator's hub node: the
// funnel's cost is the round trip to the hub, so central placement (small
// eccentricity) should beat peripheral placement, by up to the eccentricity
// ratio.
func table10HubPlacement(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 10 — hub placement for the Section III-E coordinator",
		"graph", "hub", "hub eccentricity", "max latency", "±", "makespan", "max ratio")
	type place struct {
		name string
		pick func(g *graph.Graph) graph.NodeID
	}
	central := place{"central", func(g *graph.Graph) graph.NodeID {
		best := graph.NodeID(0)
		for v := 1; v < g.N(); v++ {
			if g.Eccentricity(graph.NodeID(v)) < g.Eccentricity(best) {
				best = graph.NodeID(v)
			}
		}
		return best
	}}
	peripheral := place{"peripheral", func(g *graph.Graph) graph.NodeID {
		best := graph.NodeID(0)
		for v := 1; v < g.N(); v++ {
			if g.Eccentricity(graph.NodeID(v)) > g.Eccentricity(best) {
				best = graph.NodeID(v)
			}
		}
		return best
	}}
	graphs := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 6, RayLen: 8}) },
		func() (*graph.Graph, error) { return graph.Line(33) },
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
		for _, pl := range []place{central, peripheral} {
			pl := pl
			hub := pl.pick(g)
			points = append(points, runner.Point{
				Cells: []runner.Cell{{Name: pl.name, Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
					in, err := genUniform(g, 2, g.N()/2, 2, core.Time(g.Diameter())*2, seed)
					return in, greedy.NewCoordinator(hub, greedy.Options{}), err
				})}},
				Row: func(cs []runner.Agg) ([]string, error) {
					c := cs[0]
					return []string{g.Name(), fmt.Sprintf("%s (node %d)", pl.name, hub),
						fmt.Sprint(g.Eccentricity(hub)), c.F1(c.MaxLat.Mean), c.Spread(c.MaxLat),
						c.F1(c.Makespan.Mean), c.F2(c.MaxRatio.Mean)}, nil
				},
			})
		}
	}
	return runSweep(cfg, cfg.trials(), t, points)
}
