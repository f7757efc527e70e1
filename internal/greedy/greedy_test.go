package greedy

import (
	"strings"
	"testing"
	"testing/quick"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

func runGreedy(t *testing.T, in *core.Instance, opts Options) *sched.RunResult {
	t.Helper()
	g := New(opts)
	rr, err := sched.Run(in, g, sched.Options{Obs: obs.New()})
	if err != nil {
		t.Fatalf("%s run failed: %v", g.Name(), err)
	}
	checkBound(t, g.Name(), in, rr)
	return rr
}

// checkBound fails t unless the run's registry counts every transaction
// of in as colored once and within its Theorem 1/2 bound.
func checkBound(t *testing.T, name string, in *core.Instance, rr *sched.RunResult) {
	t.Helper()
	c := rr.Metrics.Counters
	scheduled, within := c[obs.NameGreedyColorsAssigned.String()], c[obs.NameGreedyWithinBound.String()]
	if scheduled != int64(len(in.Txns)) || within != scheduled {
		t.Errorf("%s: %d/%d of %d transactions exceeded the theorem color bound",
			name, scheduled-within, scheduled, len(in.Txns))
	}
}

func TestSingleObjectChainOnClique(t *testing.T) {
	g, err := graph.Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.SingleObjectChain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	rr := runGreedy(t, in, Options{})
	// 8 transactions all need object 0: serialization forces makespan >= 7
	// (one already co-located); greedy should not exceed ~2x that.
	if rr.Makespan < 7 {
		t.Errorf("makespan = %d, impossible below 7", rr.Makespan)
	}
	if rr.Makespan > 16 {
		t.Errorf("makespan = %d, want <= 16 for unit clique chain", rr.Makespan)
	}
	if rr.MaxRatio > 4 {
		t.Errorf("max ratio = %.2f, want small constant on clique chain", rr.MaxRatio)
	}
}

func TestGreedyValidOnRandomCliqueWorkloads(t *testing.T) {
	g, err := graph.Clique(16)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		in, err := workload.Generate(g, workload.Config{
			K: 3, NumObjects: 12, Rounds: 6,
			Arrival: workload.ArrivalPeriodic, Period: 2, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		rr := runGreedy(t, in, Options{})
		if rr.Makespan <= 0 {
			t.Errorf("seed %d: makespan = %d", seed, rr.Makespan)
		}
	}
}

func TestGreedyValidAcrossTopologies(t *testing.T) {
	tops := map[string]func() (*graph.Graph, error){
		"line":      func() (*graph.Graph, error) { return graph.Line(12) },
		"ring":      func() (*graph.Graph, error) { return graph.Ring(12) },
		"hypercube": func() (*graph.Graph, error) { return graph.Hypercube(4) },
		"butterfly": func() (*graph.Graph, error) { return graph.Butterfly(3) },
		"grid":      func() (*graph.Graph, error) { return graph.Grid(4, 4) },
		"cluster":   func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4}) },
		"star":      func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 3, RayLen: 4}) },
		"tree":      func() (*graph.Graph, error) { return graph.Tree(2, 3) },
		"random":    func() (*graph.Graph, error) { return graph.RandomConnected(14, 10, 4, 3) },
	}
	for name, mk := range tops {
		g, err := mk()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		in, err := workload.Generate(g, workload.Config{
			K: 2, NumObjects: 8, Rounds: 4,
			Arrival: workload.ArrivalPoisson, Period: 3, Seed: 11,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runGreedy(t, in, Options{}) // engine validates feasibility
	}
}

func TestGreedyUniformOnHypercube(t *testing.T) {
	g, err := graph.Hypercube(4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 8, Rounds: 4,
		Arrival: workload.ArrivalPeriodic, Period: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	gs := New(Options{Uniform: true})
	rr, err := sched.Run(in, gs, sched.Options{Obs: obs.New()})
	if err != nil {
		t.Fatalf("uniform run failed: %v", err)
	}
	checkBound(t, gs.Name(), in, rr)
	if rr.Makespan%4 != 0 {
		t.Errorf("makespan = %d, want multiple of beta=4 (epoch-aligned execs)", rr.Makespan)
	}
}

// TestGreedyRefusesWrappingPad pins Start's refusal of a padding factor
// under which a padded weight could reach graph.Infinite: a one-edge graph
// of weight 2^62−1 with a transaction at each end on one object, and in
// uniform mode a one-node graph, whose path bound is 0, so that only the
// product with β = 1 catches a Pad of 2^62. Pad 1 still runs on the
// one-edge graph.
func TestGreedyRefusesWrappingPad(t *testing.T) {
	in := &core.Instance{
		G:       graph.MustNew(2, []graph.Link{{U: 0, V: 1, W: graph.Infinite - 1}}),
		Objects: []*core.Object{{ID: 0, Origin: 0}},
		Txns: []*core.Transaction{
			{ID: 0, Node: 0, Objects: []core.ObjID{0}},
			{ID: 1, Node: 1, Objects: []core.ObjID{0}},
		},
	}
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{Options{Pad: 2}, "greedy: padding factor 2 times the slow factor 1 and the path bound 4611686018427387903"},
		{Options{Pad: 3}, "greedy: padding factor 3 times the slow factor 1 and the path bound 4611686018427387903"},
	} {
		_, err := sched.Run(in, New(tc.opts), sched.Options{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%+v: err = %v, want it to contain %q", tc.opts, err, tc.want)
		}
	}
	uniform := &core.Instance{G: graph.MustNew(1, nil), Objects: in.Objects, Txns: in.Txns[:1]}
	_, err := sched.Run(uniform, New(Options{Pad: 1 << 62, Uniform: true}), sched.Options{})
	if want := "greedy: padding factor 4611686018427387904 times beta 1 reaches 4611686018427387904"; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("uniform: err = %v, want it to contain %q", err, want)
	}
	if _, err := sched.Run(in, New(Options{Pad: 1}), sched.Options{}); err != nil {
		t.Errorf("Pad 1: %v", err)
	}
}

func TestGreedyOverlapChain(t *testing.T) {
	g, err := graph.Ring(10)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.OverlapChain(g)
	if err != nil {
		t.Fatal(err)
	}
	runGreedy(t, in, Options{})
}

// Property: the greedy scheduler produces feasible schedules on random
// workloads across random graphs; the core engine is the oracle.
func TestGreedyAlwaysFeasible(t *testing.T) {
	check := func(seed int64) bool {
		s := seed
		if s < 0 {
			s = -s
		}
		g, err := graph.RandomConnected(10+int(s%8), int(s%15), 3, s)
		if err != nil {
			return false
		}
		in, err := workload.Generate(g, workload.Config{
			K:          1 + int(s%3),
			NumObjects: 6,
			Rounds:     3,
			Arrival:    workload.ArrivalKind(s % 4),
			Period:     2,
			Seed:       s,
		})
		if err != nil {
			return false
		}
		_, err = sched.Run(in, New(Options{}), sched.Options{})
		return err == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDriverReportsUnscheduledTransactions(t *testing.T) {
	g, err := graph.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.SingleObjectChain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sched.Run(in, &nopScheduler{}, sched.Options{})
	if err == nil {
		t.Fatal("driver should fail when a scheduler never schedules")
	}
}

type nopScheduler struct{}

func (*nopScheduler) Name() string                       { return "nop" }
func (*nopScheduler) Start(*sched.Env) error             { return nil }
func (*nopScheduler) OnArrive([]*core.Transaction) error { return nil }
func (*nopScheduler) NextWake() (core.Time, bool)        { return 0, false }
func (*nopScheduler) OnWake() error                      { return nil }
