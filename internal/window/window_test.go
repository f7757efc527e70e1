package window

import (
	"fmt"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

func runWindow(t *testing.T, in *core.Instance, opts Options, simOpts core.SimOptions) *sched.RunResult {
	t.Helper()
	w := New(opts)
	rr, err := sched.Run(in, w, sched.Options{Sim: simOpts, Obs: obs.New()})
	if err != nil {
		t.Fatalf("%s run failed: %v", w.Name(), err)
	}
	if placed := rr.Metrics.Counters[obs.NameWindowPlaced.String()]; placed != int64(len(in.Txns)) {
		t.Errorf("%s: placed %d of %d transactions", w.Name(), placed, len(in.Txns))
	}
	return rr
}

func genWorkload(t *testing.T, g *graph.Graph, k, rounds int, seed int64) *core.Instance {
	t.Helper()
	in, err := workload.Generate(g, workload.Config{
		K: k, NumObjects: g.N(), Rounds: rounds,
		Arrival: workload.ArrivalPeriodic, Period: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestWindowValidAcrossTopologies(t *testing.T) {
	tops := []struct {
		name string
		mk   func() (*graph.Graph, error)
	}{
		{"clique", func() (*graph.Graph, error) { return graph.Clique(12) }},
		{"line", func() (*graph.Graph, error) { return graph.Line(12) }},
		{"cluster", func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4}) }},
		{"star", func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 3, RayLen: 4}) }},
	}
	for _, tc := range tops {
		t.Run(tc.name, func(t *testing.T) {
			g, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			in := genWorkload(t, g, 3, 4, 7)
			rr := runWindow(t, in, Options{}, core.SimOptions{})
			if rr.Makespan <= 0 {
				t.Errorf("makespan = %d", rr.Makespan)
			}
			// The decision log must replay cleanly: every window placement
			// is a feasible execution time under the model.
			if _, err := core.Replay(in, rr.Decisions, core.SimOptions{}, nil); err != nil {
				t.Errorf("replay rejected window schedule: %v", err)
			}
		})
	}
}

// TestWindowRetriesUnderContention pins that the window mechanism actually
// engages: an all-conflicting single-object chain must force colors past
// the initial window, doubling it at least once.
func TestWindowRetriesUnderContention(t *testing.T) {
	g, err := graph.Clique(16)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.SingleObjectChain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := New(Options{})
	rr, err := sched.Run(in, w, sched.Options{Obs: obs.New()})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if rr.Makespan < 7 {
		t.Errorf("makespan = %d, impossible below 7", rr.Makespan)
	}
	if rr.Metrics.Counters[obs.NameWindowRetries.String()] == 0 {
		t.Error("single-object chain on the unit clique never doubled a window; the acceptance threshold is not engaging")
	}
	if win := rr.Metrics.Histograms[obs.NameWindowWin.String()].Max; win <= 1 {
		t.Errorf("largest window at acceptance = %d, want > initial window", win)
	}
}

// batchProbe wraps a Window and checks, after every arrival batch, that
// neither the ID-sorted batch buffer nor the candidate buffer holds a
// transaction up to its capacity: no transaction outlives OnArrive.
type batchProbe struct {
	*Window
	t      *testing.T
	checks int
}

func (p *batchProbe) OnArrive(txns []*core.Transaction) error {
	if err := p.Window.OnArrive(txns); err != nil {
		return err
	}
	for i, tx := range p.txns[:cap(p.txns)] {
		if tx != nil {
			p.t.Fatalf("batch buffer slot %d retains transaction %d after OnArrive", i, tx.ID)
		}
	}
	for i, c := range p.cands[:cap(p.cands)] {
		if c.tx != nil {
			p.t.Fatalf("candidate buffer slot %d retains transaction %d after OnArrive", i, c.tx.ID)
		}
	}
	p.checks++
	return nil
}

func TestWindowBuffersRetainNoTransaction(t *testing.T) {
	g, err := graph.Clique(16)
	if err != nil {
		t.Fatal(err)
	}
	in := genWorkload(t, g, 3, 6, 11)
	p := &batchProbe{Window: New(Options{}), t: t}
	rr, err := sched.Run(in, p, sched.Options{Obs: obs.New()})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if times, _ := in.ArrivalGroups(); p.checks != len(times) {
		t.Fatalf("%d checks for %d arrival times", p.checks, len(times))
	}
	if retries := rr.Metrics.Counters[obs.NameWindowRetries.String()]; cap(p.txns) == 0 || retries == 0 {
		t.Fatalf("batch buffer capacity %d, %d retries: the probe saw no batch or no retry round",
			cap(p.txns), retries)
	}
}

func decisionsString(ds []core.Decision) string {
	return fmt.Sprintf("%+v", ds)
}

func TestWindowDeterministicPerSeed(t *testing.T) {
	g, err := graph.Clique(12)
	if err != nil {
		t.Fatal(err)
	}
	in := genWorkload(t, g, 3, 5, 11)
	base := runWindow(t, in, Options{Seed: 42}, core.SimOptions{})
	again := runWindow(t, in, Options{Seed: 42}, core.SimOptions{})
	if decisionsString(base.Decisions) != decisionsString(again.Decisions) {
		t.Error("two runs with the same seed produced different decision logs")
	}
	// A different seed draws different priorities; the schedule stays
	// valid either way (difference itself is probabilistic, not asserted).
	other := runWindow(t, in, Options{Seed: 43}, core.SimOptions{})
	if _, err := core.Replay(in, other.Decisions, core.SimOptions{}, nil); err != nil {
		t.Errorf("replay rejected seed-43 schedule: %v", err)
	}
}

// TestWindowParallelMatchesSequential pins the DESIGN.md §12 contract for
// the window engine locally (the root conformance suite re-checks it
// byte-for-byte across all engines): batch arrivals big enough to cross
// parGatherMin must produce the identical decision log at P in {2, 4}.
func TestWindowParallelMatchesSequential(t *testing.T) {
	g, err := graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 6, Gamma: 6})
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 3, NumObjects: g.N(), Rounds: 6,
		Arrival: workload.ArrivalBatch, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq := runWindow(t, in, Options{}, core.SimOptions{})
	for _, p := range []int{2, 4} {
		par := runWindow(t, in, Options{}, core.SimOptions{Parallel: p})
		if decisionsString(seq.Decisions) != decisionsString(par.Decisions) {
			t.Errorf("P=%d: parallel decision log differs from sequential", p)
		}
		if par.Makespan != seq.Makespan {
			t.Errorf("P=%d: makespan %d != sequential %d", p, par.Makespan, seq.Makespan)
		}
	}
}
