package experiments

import (
	"fmt"
	"math/rand"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

// table8BatchQuality probes Theorem 4's proportionality in b_A: the online
// bucket schedule is O(b_A log^3(nD))-competitive, so converting a
// better-approximating batch algorithm must yield a proportionally better
// online schedule. We rank the four batch algorithms by their one-shot
// batch makespan on the same workload (a direct proxy for b_A) and compare
// their online ratios.
func table8BatchQuality(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 8 — Theorem 4's b_A dependence: batch quality vs online ratio",
		"graph", "batch A", "one-shot batch makespan (b_A proxy)", "online max ratio", "±", "online mean ratio")
	graphs := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(64) },
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 4, RayLen: 8}) },
	}
	if cfg.Quick {
		graphs = graphs[:1]
	}
	algos := []batch.Scheduler{
		batch.Coloring{},
		batch.Tour{},
		batch.WithSuffixProperty(batch.Tour{}),
		batch.List{},
		batch.Randomized{Seed: cfg.Seed, Tries: 4},
	}
	var points []runner.Point
	for _, mk := range graphs {
		g, err := mk()
		if err != nil {
			return nil, err
		}
		n := g.N()
		mkInstance := func(seed int64) (*core.Instance, error) {
			return genUniform(g, 2, n/2, 3, core.Time(g.Diameter())*2, seed)
		}
		for _, a := range algos {
			a := a
			points = append(points, runner.Point{
				Cells: []runner.Cell{
					// One-shot batch problem: the entire workload at t=0.
					{Name: "one-shot", Run: func(seed int64, _ *obs.Metrics) (runner.Outcome, error) {
						batchIn, err := mkInstance(cfg.Seed)
						if err != nil {
							return runner.Outcome{}, err
						}
						avail := make(map[core.ObjID]batch.Avail)
						for _, o := range batchIn.Objects {
							avail[o.ID] = batch.Avail{Node: o.Origin, Free: 0}
						}
						p := &batch.Problem{G: g, Now: 0, Txns: batchIn.Txns, Avail: avail}
						oneShot, err := batch.Cost(a, p)
						if err != nil {
							return runner.Outcome{}, err
						}
						return runner.Outcome{Extra: map[string]float64{"oneShot": float64(oneShot)}}, nil
					}},
					{Name: "online", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
						in, err := mkInstance(seed)
						return in, bucket.New(bucket.Options{Batch: a}), err
					})},
				},
				Row: func(cs []runner.Agg) ([]string, error) {
					if err := runner.FirstErr(cs); err != nil {
						return nil, err
					}
					oneShot, m := cs[0], cs[1]
					return []string{g.Name(), a.Name(), oneShot.Int(oneShot.X("oneShot")),
						m.F2(m.MaxRatio.Mean), m.Spread(m.MaxRatio), m.F2(m.MeanRatio.Mean)}, nil
				},
			})
		}
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// table9ClosedLoop runs the paper's exact Section III-C process on the
// clique — "once a transaction completes execution, the node issues in the
// next step a new transaction requesting an arbitrary set of k objects" —
// and checks Theorem 3's O(k) shape under it.
func table9ClosedLoop(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 9 — Theorem 3 under the paper's closed-loop process (clique)",
		"k", "transactions", "max ratio", "±", "mean ratio", "max ratio / k", "makespan")
	n := 32
	ks := []int{1, 2, 4, 8}
	rounds := 4
	if cfg.Quick {
		n = 12
		ks = []int{1, 4}
		rounds = 3
	}
	g, err := graph.Clique(n)
	if err != nil {
		return nil, err
	}
	numObjects := n
	var points []runner.Point
	for _, k := range ks {
		k := k
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: fmt.Sprintf("k=%d", k), Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
				objects := make([]*core.Object, numObjects)
				objRng := rand.New(rand.NewSource(seed))
				for i := range objects {
					objects[i] = &core.Object{ID: core.ObjID(i), Origin: graph.NodeID(objRng.Intn(n))}
				}
				gen := func(node graph.NodeID, round int) []core.ObjID {
					rng := rand.New(rand.NewSource(seed ^ (int64(node)<<20 + int64(round))))
					set := make([]core.ObjID, 0, k)
					seen := make(map[core.ObjID]bool)
					for len(set) < k {
						o := core.ObjID(rng.Intn(numObjects))
						if !seen[o] {
							seen[o] = true
							set = append(set, o)
						}
					}
					return core.NormalizeObjects(set)
				}
				rr, in, err := sched.RunClosedLoop(g, sched.ClosedLoopConfig{
					Objects: objects, Rounds: rounds, Gen: gen,
				}, greedy.New(greedy.Options{}), sched.Options{Obs: m})
				if err != nil {
					return runner.Outcome{}, err
				}
				out := runner.FromRunResult(rr)
				out.Extra = map[string]float64{"txns": float64(len(in.Txns))}
				return out, nil
			}}},
			Row: func(cs []runner.Agg) ([]string, error) {
				c := cs[0]
				return []string{fmt.Sprint(k), c.Int(c.X("txns")), c.F2(c.MaxRatio.Mean), c.Spread(c.MaxRatio),
					c.F2(c.MeanRatio.Mean), c.F2(c.MaxRatio.Mean / float64(k)), c.F1(c.Makespan.Mean)}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}
