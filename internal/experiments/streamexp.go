package experiments

// T14 — the open-system stability frontier. The paper analyzes one-shot
// and closed-loop workloads; the streaming driver asks the queueing
// question instead: up to which Poisson arrival rate λ does each engine
// keep the in-flight queue bounded on each topology? Each cell bisects
// λ* — the largest stable rate — where "stable" means the second-half
// queue peak stays within a doubling of the first-half peak (an unstable
// queue grows linearly, so the halves separate cleanly). The sojourn p95
// and peak queue at λ* characterize service at the frontier.

import (
	"fmt"

	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
	"dtm/internal/workload"
)

// streamStable is T14's stability criterion: a bounded queue's
// second-half peak plateaus near the first-half peak, while a divergent
// queue grows at least linearly — which puts the second-half peak at 2x
// the first-half peak — so a 1.5x threshold separates the two regimes
// with margin on both sides.
func streamStable(res *sched.StreamResult) bool {
	return 2*res.QueuePeakSecondHalf <= 3*res.QueuePeakFirstHalf+32
}

// frontierGraphs are the graphs T14 bisects λ* on, which T15's window
// rows reuse: a line and a cluster, smaller under Quick.
func frontierGraphs(cfg Config) []func() (*graph.Graph, error) {
	if cfg.Quick {
		return []func() (*graph.Graph, error){
			func() (*graph.Graph, error) { return graph.Line(16) },
			func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 2, Beta: 4, Gamma: 4}) },
		}
	}
	return []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(64) },
		func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 8, Gamma: 8}) },
	}
}

// bisectFrontier bisects the largest stable Poisson rate λ* in [1/64, 16]
// for a fresh engine from mk per probe, on g with K=2 and one object per
// node: lo tracks the last stable probe, hi the last unstable one. The
// floor is far below any engine's service rate; a λ* reported at the
// ceiling means the frontier lies beyond it. It returns λ* and the
// stream result of the probe at it. Each probe counts into a registry of
// its own, so the sojourn percentiles of a result are its probe's alone;
// m collects every probe's snapshot.
func bisectFrontier(cfg Config, g *graph.Graph, mk func() sched.Scheduler, seed int64, m *obs.Metrics) (float64, *sched.StreamResult, error) {
	arrivals, iters := int64(5000), 8
	if cfg.Quick {
		arrivals, iters = 600, 6
	}
	probe := func(rate float64) (*sched.StreamResult, error) {
		src, err := workload.NewPoissonSource(g, workload.StreamConfig{
			K: 2, NumObjects: g.N(), Rate: rate, Seed: seed,
		})
		if err != nil {
			return nil, err
		}
		res, err := sched.RunStream(g, workload.UniformObjects(g, g.N(), seed),
			src, mk(), sched.StreamOptions{MaxArrivals: arrivals})
		if res != nil {
			if merr := m.Merge(res.Metrics); err == nil {
				err = merr
			}
		}
		return res, err
	}
	lo, hi := 1.0/64, 16.0
	best, err := probe(lo)
	if err != nil {
		return 0, nil, err
	}
	if !streamStable(best) {
		return 0, nil, fmt.Errorf("%s on %s: unstable even at λ=%g", mk().Name(), g.Name(), lo)
	}
	for i := 0; i < iters; i++ {
		mid := (lo + hi) / 2
		res, err := probe(mid)
		if err != nil {
			return 0, nil, err
		}
		if streamStable(res) {
			lo, best = mid, res
		} else {
			hi = mid
		}
	}
	return lo, best, nil
}

func table14StreamStability(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 14 — open-system stability frontier (bisected λ*, Poisson arrivals, K=2)",
		"graph", "scheduler", "λ*", "±", "p95 sojourn @λ*", "queue peak @λ*", "retired @λ*")
	var points []runner.Point
	for _, mg := range frontierGraphs(cfg) {
		for _, mkSched := range []func() sched.Scheduler{newGreedy, newBucketTour} {
			g, err := mg()
			if err != nil {
				return nil, err
			}
			sname := mkSched().Name()
			points = append(points, runner.Point{
				Cells: []runner.Cell{{
					Name: fmt.Sprintf("%s/%s", g.Name(), sname),
					Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
						rate, best, err := bisectFrontier(cfg, g, mkSched, seed, m)
						if err != nil {
							return runner.Outcome{}, err
						}
						return runner.Outcome{
							MaxLat:  float64(best.MaxSojourn),
							MeanLat: best.MeanSojourn,
							Extra: map[string]float64{
								"lambda":  rate,
								"p95":     float64(best.SojournP95),
								"queue":   float64(best.QueuePeak),
								"retired": float64(best.Retired),
							},
						}, nil
					},
				}},
				Row: func(cs []runner.Agg) ([]string, error) {
					c := cs[0]
					return []string{g.Name(), sname,
						c.F("%.3f", c.X("lambda").Mean), c.Spread(c.X("lambda")),
						c.Int(c.X("p95")), c.Int(c.X("queue")), c.Int(c.X("retired"))}, nil
				},
			})
		}
	}
	return runSweep(cfg, cfg.trials(), t, points)
}
