package experiments

import (
	"fmt"
	"math"
	"math/bits"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

// figure5Line sweeps the line length for two k values. The Section IV-D
// claim: the bucket conversion of the O(1)-approximate line batch scheduler
// is O(log^3 n)-competitive with no dependence on k; greedy is shown for
// contrast (it has no good line guarantee).
func figure5Line(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 5 — line: bucket ratio vs n and k (Section IV-D: O(log^3 n), k-free)",
		"n", "k", "bucket max", "±", "bucket mean", "greedy max", "bucket max/log^3 n")
	ns := []int{16, 32, 64, 128, 256}
	ks := []int{2, 8}
	if cfg.Quick {
		ns = []int{16, 64}
		ks = []int{2}
	}
	var points []runner.Point
	for _, n := range ns {
		g, err := graph.Line(n)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			n, k := n, k
			period := core.Time(g.Diameter()) * 2
			mkIn := func(seed int64) (*core.Instance, error) {
				return genUniform(g, k, n/2, 3, period, seed)
			}
			points = append(points, runner.Point{
				Cells: []runner.Cell{
					{Name: "bucket", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
						in, err := mkIn(seed)
						return in, newBucketTour(), err
					})},
					{Name: "greedy", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
						in, err := mkIn(seed)
						return in, newGreedy(), err
					})},
				},
				Row: func(cs []runner.Agg) ([]string, error) {
					mb, mg := cs[0], cs[1]
					l3 := math.Pow(math.Log2(float64(n)), 3)
					return []string{fmt.Sprint(n), fmt.Sprint(k), mb.F2(mb.MaxRatio.Mean), mb.Spread(mb.MaxRatio),
						mb.F2(mb.MeanRatio.Mean), mg.F2(mg.MaxRatio.Mean), mb.F("%.3f", mb.MaxRatio.Mean/l3)}, nil
				},
			})
		}
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// figure6Cluster sweeps the per-clique size β (γ = β) on the cluster
// topology of Section IV-D.
func figure6Cluster(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 6 — cluster: bucket ratio vs β (Section IV-D)",
		"alpha", "beta", "gamma", "n", "k", "tour max", "±", "tour mean", "list max")
	alphas := 8
	betas := []int{4, 8, 16, 32}
	ks := []int{2, 8}
	if cfg.Quick {
		alphas = 4
		betas = []int{4, 8}
		ks = []int{2}
	}
	var points []runner.Point
	for _, beta := range betas {
		spec := graph.ClusterSpec{Alpha: alphas, Beta: beta, Gamma: graph.Weight(beta)}
		g, err := graph.Cluster(spec)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			beta, k := beta, k
			mkIn := func(seed int64) (*core.Instance, error) {
				return genUniform(g, k, g.N()/2, 2, core.Time(g.Diameter())*2, seed)
			}
			points = append(points, runner.Point{
				Cells: []runner.Cell{
					{Name: "tour", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
						in, err := mkIn(seed)
						return in, newBucketTour(), err
					})},
					{Name: "list", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
						in, err := mkIn(seed)
						return in, newBucketList(), err
					})},
				},
				Row: func(cs []runner.Agg) ([]string, error) {
					m, ml := cs[0], cs[1]
					return []string{fmt.Sprint(alphas), fmt.Sprint(beta), fmt.Sprint(beta),
						fmt.Sprint(g.N()), fmt.Sprint(k), m.F2(m.MaxRatio.Mean), m.Spread(m.MaxRatio),
						m.F2(m.MeanRatio.Mean), ml.F2(ml.MaxRatio.Mean)}, nil
				},
			})
		}
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// figure7Star sweeps the ray length β on the star topology of Section IV-D.
func figure7Star(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 7 — star: bucket ratio vs β (Section IV-D)",
		"rays", "beta", "n", "k", "tour max", "±", "tour mean", "list max", "tour max/(log β · log^3 n)")
	rays := 8
	betas := []int{4, 8, 16, 32, 64}
	if cfg.Quick {
		rays = 4
		betas = []int{4, 16}
	}
	k := 2
	var points []runner.Point
	for _, beta := range betas {
		g, err := graph.Star(graph.StarSpec{Rays: rays, RayLen: beta})
		if err != nil {
			return nil, err
		}
		beta := beta
		mkIn := func(seed int64) (*core.Instance, error) {
			return genUniform(g, k, g.N()/2, 2, core.Time(g.Diameter())*2, seed)
		}
		points = append(points, runner.Point{
			Cells: []runner.Cell{
				{Name: "tour", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
					in, err := mkIn(seed)
					return in, newBucketTour(), err
				})},
				{Name: "list", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
					in, err := mkIn(seed)
					return in, newBucketList(), err
				})},
			},
			Row: func(cs []runner.Agg) ([]string, error) {
				m, ml := cs[0], cs[1]
				norm := m.MaxRatio.Mean / (math.Log2(float64(beta)+1) * math.Pow(math.Log2(float64(g.N())), 3))
				return []string{fmt.Sprint(rays), fmt.Sprint(beta), fmt.Sprint(g.N()), fmt.Sprint(k),
					m.F2(m.MaxRatio.Mean), m.Spread(m.MaxRatio), m.F2(m.MeanRatio.Mean),
					ml.F2(ml.MaxRatio.Mean), m.F("%.4f", norm)}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// table3BucketLemmas audits Lemma 3 (level cap) and Lemma 4 (bucket latency
// bound) on model-respecting workloads over the Section IV-D topologies.
func table3BucketLemmas(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 3 — bucket Lemma 3/4 audit",
		"graph", "batch A", "max level", "Lemma 3 cap", "within Lemma 4", "scheduled", "overflows")
	graphs := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(64) },
		func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 4, Beta: 6, Gamma: 6}) },
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 6, RayLen: 8}) },
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
		for _, a := range []batch.Scheduler{batch.Tour{}, batch.Coloring{}} {
			a := a
			points = append(points, runner.Point{
				Cells: []runner.Cell{{Name: a.Name(), Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
					b := bucket.New(bucket.Options{Batch: a})
					in, err := genUniform(g, 2, g.N()/2, 3, core.Time(g.Diameter())*4, seed)
					if err != nil {
						return runner.Outcome{}, err
					}
					rr, err := sched.Run(in, b, sched.Options{Obs: m})
					if err != nil {
						return runner.Outcome{}, err
					}
					c := rr.Metrics.Counters
					maxLevel := rr.Metrics.Histograms[obs.NameBucketLevel.String()].Max
					nd := uint64(g.N()) * uint64(g.Diameter())
					cap3 := bits.Len64(nd-1) + 1
					if maxLevel > int64(cap3) {
						return runner.Outcome{}, fmt.Errorf("T3: %s: level %d beyond Lemma 3 cap %d", g, maxLevel, cap3)
					}
					out := runner.FromRunResult(rr)
					out.Extra = map[string]float64{
						"maxLevel":  float64(maxLevel),
						"cap3":      float64(cap3),
						"within4":   float64(c[obs.NameBucketWithinLemma4.String()]),
						"scheduled": float64(c[obs.NameBucketScheduled.String()]),
						"overflows": float64(c[obs.NameBucketOverflows.String()]),
					}
					return out, nil
				}}},
				Row: func(cs []runner.Agg) ([]string, error) {
					if err := runner.FirstErr(cs); err != nil {
						return nil, err
					}
					c := cs[0]
					return []string{g.Name(), a.Name(), c.Int(c.X("maxLevel")), c.Int(c.X("cap3")),
						c.Int(c.X("within4")), c.Int(c.X("scheduled")), c.Int(c.X("overflows"))}, nil
				},
			})
		}
	}
	return runSweep(cfg, 1, t, points)
}

// figure8Crossover compares greedy and bucket as the diameter grows (rings
// of increasing size): greedy wins on small-diameter graphs, the bucket
// conversion catches up as D grows (Section III-E's closing discussion).
func figure8Crossover(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 8 — greedy vs bucket as diameter grows (rings)",
		"n", "D", "greedy max", "±", "bucket max", "greedy mean", "bucket mean")
	ns := []int{8, 16, 32, 64, 128, 256}
	if cfg.Quick {
		ns = []int{8, 32}
	}
	var points []runner.Point
	for _, n := range ns {
		g, err := graph.Ring(n)
		if err != nil {
			return nil, err
		}
		n := n
		period := core.Time(g.Diameter())
		mkIn := func(seed int64) (*core.Instance, error) {
			return genUniform(g, 2, n/2, 3, period, seed)
		}
		points = append(points, runner.Point{
			Cells: []runner.Cell{
				{Name: "greedy", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
					in, err := mkIn(seed)
					return in, newGreedy(), err
				})},
				{Name: "bucket", Run: runner.Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
					in, err := mkIn(seed)
					return in, newBucketTour(), err
				})},
			},
			Row: func(cs []runner.Agg) ([]string, error) {
				mg, mb := cs[0], cs[1]
				return []string{fmt.Sprint(n), fmt.Sprint(g.Diameter()), mg.F2(mg.MaxRatio.Mean), mg.Spread(mg.MaxRatio),
					mb.F2(mb.MaxRatio.Mean), mg.F2(mg.MeanRatio.Mean), mb.F2(mb.MeanRatio.Mean)}, nil
			},
		})
	}
	return runSweep(cfg, cfg.trials(), t, points)
}

// table7BucketAblation isolates the leveled-bucket design: local
// single-object transactions should progress far faster under leveled
// buckets than when everything is forced into the top bucket.
func table7BucketAblation(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Table 7 — bucket structure ablation (line, mixed locality)",
		"variant", "mean latency (local txns)", "mean latency (far txns)", "makespan")
	n := 64
	if cfg.Quick {
		n = 32
	}
	g, err := graph.Line(n)
	if err != nil {
		return nil, err
	}
	build := func() (*core.Instance, []core.TxID, []core.TxID) {
		in := &core.Instance{G: g}
		for i := 0; i < n; i++ {
			in.Objects = append(in.Objects, &core.Object{ID: core.ObjID(i), Origin: graph.NodeID(i)})
		}
		var local, far []core.TxID
		for i := 0; i < n; i += 2 {
			id := core.TxID(len(in.Txns))
			in.Txns = append(in.Txns, &core.Transaction{
				ID: id, Node: graph.NodeID(i), Arrival: core.Time(i),
				Objects: []core.ObjID{core.ObjID(i)}, // co-located
			})
			local = append(local, id)
		}
		for i := 1; i < n; i += 16 {
			id := core.TxID(len(in.Txns))
			in.Txns = append(in.Txns, &core.Transaction{
				ID: id, Node: graph.NodeID(i), Arrival: core.Time(i),
				Objects: []core.ObjID{core.ObjID(n - 1 - i)}, // far away
			})
			far = append(far, id)
		}
		return in, local, far
	}
	meanOf := func(lat []core.Time, ids []core.TxID) float64 {
		var s float64
		for _, id := range ids {
			s += float64(lat[id])
		}
		return s / float64(len(ids))
	}
	var points []runner.Point
	for _, variant := range []struct {
		name  string
		force bool
	}{{"leveled (Algorithm 2)", false}, {"single top bucket", true}} {
		variant := variant
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: variant.name, Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
				in, local, far := build()
				b := bucket.New(bucket.Options{Batch: batch.Tour{}, ForceTopLevel: variant.force})
				rr, err := sched.Run(in, b, sched.Options{Obs: m})
				if err != nil {
					return runner.Outcome{}, err
				}
				out := runner.FromRunResult(rr)
				out.Extra = map[string]float64{
					"localLat": meanOf(rr.Latency, local),
					"farLat":   meanOf(rr.Latency, far),
				}
				return out, nil
			}}},
			Row: func(cs []runner.Agg) ([]string, error) {
				if err := runner.FirstErr(cs); err != nil {
					return nil, err
				}
				c := cs[0]
				return []string{variant.name, c.F1(c.X("localLat").Mean), c.F1(c.X("farLat").Mean),
					c.Int(c.Makespan)}, nil
			},
		})
	}
	return runSweep(cfg, 1, t, points)
}
