package greedy

import (
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// leakProbe wraps a Greedy and, after every arrival batch, compares the
// scheduler's live-set bookkeeping (conflict-index vertices/postings for
// the incremental engine, the live list and objUsers for the oracle)
// against the simulation's ground truth: a transaction is live at time t
// iff it has not executed strictly before t. Any excess means committed
// transactions are being retained — the leak the O(1) posting removal and
// prune must prevent over long-lived runs. It also checks that the
// scheduler's batch buffer holds no transaction once OnArrive returns.
type leakProbe struct {
	*Greedy
	t       *testing.T
	env     *sched.Env
	arrived []core.TxID
	checks  int
	maxLive int
}

func (p *leakProbe) Start(env *sched.Env) error {
	p.env = env
	return p.Greedy.Start(env)
}

func (p *leakProbe) OnArrive(txns []*core.Transaction) error {
	if err := p.Greedy.OnArrive(txns); err != nil {
		return err
	}
	for _, tx := range txns {
		p.arrived = append(p.arrived, tx.ID)
	}
	p.check()
	return nil
}

func (p *leakProbe) check() {
	now := p.env.Sim.Now()
	truth := 0
	for _, id := range p.arrived {
		if et, ok := p.env.Sim.Executed(id); !ok || et >= now {
			truth++
		}
	}
	for i, tx := range p.Greedy.txns[:cap(p.Greedy.txns)] {
		if tx != nil {
			p.t.Fatalf("t=%d: batch buffer slot %d retains transaction %d after OnArrive", now, i, tx.ID)
		}
	}
	live, postings := p.Greedy.LiveStats()
	// The tracking structures are pruned lazily (at schedule time), so they
	// may briefly exceed the truth only by transactions not yet due — but a
	// schedule just ran at `now`, so the prune is current: exact equality.
	if live != truth {
		p.t.Fatalf("t=%d: scheduler tracks %d live transactions, truth is %d (leak of %d)",
			now, live, truth, live-truth)
	}
	// Each live transaction occupies at most K posting entries; committed
	// transactions must occupy none.
	if maxEntries := truth * maxObjectsPerTx; postings > maxEntries {
		p.t.Fatalf("t=%d: %d posting entries for %d live transactions (max %d): committed retained",
			now, postings, truth, maxEntries)
	}
	p.checks++
	if live > p.maxLive {
		p.maxLive = live
	}
}

const maxObjectsPerTx = 2 // workload K below

// TestPruneLeakGuardLongRun drives both engines through a long-lived mixed
// workload at n=512 with over 10k arrivals and asserts after every arrival
// that no committed transaction survives in the live tracking structures.
func TestPruneLeakGuardLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("long leak guard")
	}
	const (
		n      = 512
		rounds = 20 // 512 * 20 = 10240 arrivals
	)
	g, err := graph.Clique(n)
	if err != nil {
		t.Fatal(err)
	}
	// Zipf popularity over a large object set gives the mixed lifetime
	// profile the guard needs: hot-object transactions queue behind long
	// conflict chains and stay live across many arrivals, cold-object
	// transactions commit (and must be pruned) almost immediately.
	in, err := workload.Generate(g, workload.Config{
		K: maxObjectsPerTx, NumObjects: 4 * n, Rounds: rounds,
		Arrival: workload.ArrivalPoisson, Period: 6,
		Pop: workload.PopZipf, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Txns) < 10000 {
		t.Fatalf("workload has %d transactions, want >= 10000", len(in.Txns))
	}
	times, _ := in.ArrivalGroups()
	arrivalTimes := len(times)
	for _, rebuild := range []bool{false, true} {
		probe := &leakProbe{Greedy: New(Options{RebuildOracle: rebuild}), t: t}
		rr, err := sched.Run(in, probe, sched.Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("rebuild=%v: run failed: %v", rebuild, err)
		}
		if rr.Failed {
			t.Fatalf("rebuild=%v: run marked failed: %v", rebuild, rr.Err)
		}
		if probe.checks != arrivalTimes {
			t.Fatalf("rebuild=%v: %d leak checks for %d arrival times", rebuild, probe.checks, arrivalTimes)
		}
		t.Logf("rebuild=%v: %d arrivals, %d checks, peak live %d",
			rebuild, len(in.Txns), probe.checks, probe.maxLive)
	}
}
