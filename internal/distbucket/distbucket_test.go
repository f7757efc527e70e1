package distbucket

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"strings"
	"testing"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// outcome is one protocol run: the driver's result and the protocol's
// report. Both carry an Abandoned field, so those reads name the part.
type outcome struct {
	*sched.RunResult
	Report
}

// runOpts runs New(opts) through sched.Run with the driver options sopts.
// The protocol counts what it did only in the run's registry, which
// sched.Run makes when sopts brings none.
func runOpts(in *core.Instance, opts Options, sopts sched.Options) (outcome, error) {
	p := New(opts)
	rr, err := sched.Run(in, p, sopts)
	return outcome{rr, p.Report()}, err
}

// count reads one counter of the run's metrics snapshot.
func (o outcome) count(name obs.Name) int64 { return o.Metrics.Counters[name.String()] }

func run(t *testing.T, in *core.Instance, opts Options) outcome {
	t.Helper()
	res, err := runOpts(in, opts, sched.Options{})
	if err != nil {
		t.Fatalf("distbucket run failed: %v", err)
	}
	return res
}

// resultBytes renders everything a run reports — decisions, the result,
// the ratio trace, the protocol's counters and histograms, audits and
// abandoned set — for byte-for-byte comparison.
func resultBytes(t *testing.T, res outcome) []byte {
	t.Helper()
	protocol := map[string]any{}
	for name, v := range res.Metrics.Counters {
		if strings.HasPrefix(name, "distnet.") || strings.HasPrefix(name, "distbucket.") {
			protocol[name] = v
		}
	}
	for name, v := range res.Metrics.Histograms {
		if strings.HasPrefix(name, "distnet.") || strings.HasPrefix(name, "distbucket.") {
			protocol[name] = v
		}
	}
	data, err := json.Marshal(struct {
		Decisions                     []core.Decision
		Result                        *core.Result
		Ratios                        []sched.RatioPoint
		Protocol                      map[string]any
		Abandoned                     []AbandonedTx
		Lemma6Pairs, Lemma6Violations int
	}{res.Decisions, res.Result, res.Ratios, protocol, res.Report.Abandoned,
		res.Lemma6Pairs, res.Lemma6Violations})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestNilBatchDefaultsToTour(t *testing.T) {
	g, _ := graph.Line(4)
	in, _ := workload.SingleObjectChain(g, 0)
	res, err := sched.Run(in, New(Options{}), sched.Options{})
	if err != nil {
		t.Fatalf("nil batch scheduler should default to Tour: %v", err)
	}
	if want := "distbucket(" + (batch.Tour{}).Name() + ")"; res.Scheduler != want {
		t.Errorf("scheduler = %q, want %q", res.Scheduler, want)
	}
}

func TestSingleTransactionCoLocated(t *testing.T) {
	g, _ := graph.Line(8)
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: 3}},
		Txns:    []*core.Transaction{{ID: 0, Node: 3, Objects: []core.ObjID{0}}},
	}
	res := run(t, in, Options{Seed: 1})
	if res.Err != nil {
		t.Fatalf("violation: %v", res.Err)
	}
	// Discovery is local (home == node), but the report/reserve/notify
	// round trips through the layer-0 cluster leader each cost up to the
	// cluster diameter (< 8): a small-constant makespan, not instant.
	if res.Makespan > 40 {
		t.Errorf("makespan = %d, want bounded by protocol round trips", res.Makespan)
	}
	if n := res.count(obs.NameDistbucketInsertions); n != 1 {
		t.Errorf("%d insertions, want one", n)
	}
}

func TestChainOnLine(t *testing.T) {
	g, _ := graph.Line(12)
	in, err := workload.SingleObjectChain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, in, Options{Seed: 2})
	if n := res.count(obs.NameDistbucketInsertions); n != int64(len(in.Txns)) {
		t.Errorf("inserted %d of %d", n, len(in.Txns))
	}
	if res.count(obs.NameDistnetMessages) == 0 || res.count(obs.NameDistnetMsgDistance) == 0 {
		t.Error("no protocol messages recorded")
	}
	// Objects at half speed, poly-log protocol overhead: makespan must
	// still be within a sane envelope of the serial lower bound (~n).
	if res.Makespan < 11 {
		t.Errorf("makespan = %d, impossible below the serial bound", res.Makespan)
	}
}

func TestTopologiesAndWorkloads(t *testing.T) {
	tops := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(12) },
		func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 5}) },
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 3, RayLen: 4}) },
		func() (*graph.Graph, error) { return graph.Grid(4, 4) },
	}
	for _, mk := range tops {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		in, err := workload.Generate(g, workload.Config{
			K: 2, NumObjects: 6, Rounds: 2,
			Arrival: workload.ArrivalPeriodic, Period: 50, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		res := run(t, in, Options{Seed: 4})
		if res.Err != nil {
			t.Errorf("%s: violation: %v", g, res.Err)
		}
	}
}

// The network engine is sequential, so a run whose sim warms every tree
// concurrently up front (Sim.Parallel) matches a run that builds them
// lazily, byte for byte. Each run gets a fresh graph.
func TestParallelEngineMatchesSequential(t *testing.T) {
	mk := func(parallel int) []byte {
		g, _ := graph.Grid(4, 4)
		in, err := workload.Generate(g, workload.Config{
			K: 2, NumObjects: 5, Rounds: 2,
			Arrival: workload.ArrivalPeriodic, Period: 30, Seed: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runOpts(in, Options{Seed: 8}, sched.Options{Sim: core.SimOptions{Parallel: parallel}})
		if err != nil {
			t.Fatal(err)
		}
		return resultBytes(t, res)
	}
	if seq, par := mk(0), mk(2); !bytes.Equal(seq, par) {
		t.Errorf("runs differ\nlazy:   %s\nwarmed: %s", seq, par)
	}
}

func TestFullSpeedObjectsAlsoFeasible(t *testing.T) {
	// F9 ablation: with SlowFactor 1 the protocol stays valid here because
	// discovery uses a home directory rather than chasing (DESIGN.md §2).
	g, _ := graph.Line(10)
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 5, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	half := run(t, in, Options{Seed: 5})
	full, err := runOpts(in, Options{Seed: 5}, sched.Options{Sim: core.SimOptions{SlowFactor: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if full.Err != nil || half.Err != nil {
		t.Fatalf("violations: full=%v half=%v", full.Err, half.Err)
	}
	if full.SlowFactor != 1 || half.SlowFactor != 2 {
		t.Fatalf("object speeds: full=%d half=%d, want 1 and the protocol's own 2", full.SlowFactor, half.SlowFactor)
	}
	if full.Makespan > half.Makespan {
		t.Errorf("full-speed makespan %d exceeds half-speed %d", full.Makespan, half.Makespan)
	}
}

func TestContendedObjectsSerializedAcrossLeaders(t *testing.T) {
	// Many nodes, one hot object, spread arrivals: multiple leaders must
	// coordinate through the home reservations without conflicts.
	g, _ := graph.Grid(5, 5)
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: 12}},
	}
	for i := 0; i < g.N(); i += 3 {
		in.Txns = append(in.Txns, &core.Transaction{
			ID:      core.TxID(len(in.Txns)),
			Node:    graph.NodeID(i),
			Arrival: core.Time(i),
			Objects: []core.ObjID{0},
		})
	}
	res := run(t, in, Options{Seed: 11})
	if res.Err != nil {
		t.Fatalf("violation: %v", res.Err)
	}
	if res.count(obs.NameDistbucketActivations) == 0 {
		t.Error("no activations recorded")
	}
}

func TestRatiosComputed(t *testing.T) {
	g, _ := graph.Line(10)
	in, err := workload.Generate(g, workload.Config{
		K: 1, NumObjects: 4, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 25, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := run(t, in, Options{Seed: 1})
	if len(res.Ratios) == 0 {
		t.Fatal("no competitive-ratio snapshots")
	}
	if res.MaxRatio <= 0 {
		t.Errorf("max ratio = %v, want positive", res.MaxRatio)
	}
}

// The protocol runs the network through the step of the last commit and
// no further: every event at or before that step is handled, none after.
func TestNetworkStopsAtLastCommit(t *testing.T) {
	g, _ := graph.Grid(4, 4)
	for seed := int64(1); seed <= 8; seed++ {
		in, err := workload.Generate(g, workload.Config{
			K: 2, NumObjects: 5, Rounds: 3,
			Arrival: workload.ArrivalPoisson, Period: 4, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := New(Options{Seed: seed})
		rr, err := sched.Run(in, p, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if now := p.net.Now(); now > rr.Makespan {
			t.Errorf("seed %d: network ran to t=%d, past the last commit at t=%d", seed, now, rr.Makespan)
		}
		if next, ok := p.net.NextEvent(); ok && next <= rr.Makespan {
			t.Errorf("seed %d: network event at t=%d left pending by the last commit at t=%d", seed, next, rr.Makespan)
		}
	}
}

// Nodes look transactions up through Sim.Txn, so the protocol survives
// RunStream's window retirement, which shifts the sim's transaction slice
// under it.
func TestStreamSurvivesRetirement(t *testing.T) {
	g, err := graph.Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	const arrivals = 6000
	src, err := workload.NewPoissonSource(g, workload.StreamConfig{K: 2, NumObjects: 8, Rate: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.RunStream(g, workload.UniformObjects(g, 8, 1), src, New(Options{Seed: 1}),
		sched.StreamOptions{MaxArrivals: arrivals})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != arrivals {
		t.Errorf("committed %d of %d arrivals", res.Completed, arrivals)
	}
	if res.Retired == 0 {
		t.Error("retirement never fired")
	}
}

// TestCoverLayerBounds checks the distbucket.cover_layer bounds package
// obs declares as a literal against the layer count they stand for: one
// bucket per layer cover.Build can make, ceil(log2 D)+1 layers for a
// diameter D below graph.Infinite, numbered from 0.
func TestCoverLayerBounds(t *testing.T) {
	m := obs.New()
	m.Histogram(obs.NameDistbucketCoverLayer)
	bounds := m.Snapshot().Histograms[obs.NameDistbucketCoverLayer.String()].Bounds
	if want := bits.Len64(uint64(graph.Infinite-1)) + 1; len(bounds) != want {
		t.Fatalf("%d cover_layer bounds, want %d", len(bounds), want)
	}
	for i, b := range bounds {
		if b != int64(i) {
			t.Fatalf("cover_layer bound %d is %d, want %d", i, b, i)
		}
	}
}
