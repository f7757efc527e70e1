package bucket

import (
	"fmt"
	"slices"
	"testing"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// availProbe wraps a Bucket and, wherever OnArrive or an activation reads
// the live availability map, checks the two facts it rests on:
//
//   - every entry agrees with a fresh resolveAvail on the node and on the
//     free time as the batch schedulers read it, max(Free, now);
//   - no object without a decided user is in transit, which is why
//     resolveAvail has no in-transit case.
type availProbe struct {
	*Bucket
	t      *testing.T
	name   string
	checks int
}

// OnArrive checks the entries Bucket.OnArrive's probes read.
func (p *availProbe) OnArrive(txns []*core.Transaction) error {
	p.check()
	return p.Bucket.OnArrive(txns)
}

// OnWake is Bucket.OnWake with the check before each activation, so a
// level activated after a lower one in the same wake has its entries
// checked after the lower level's decisions.
func (p *availProbe) OnWake() error {
	now := p.env.Sim.Now()
	for i := range p.levels {
		period := core.Time(1) << uint(i)
		if now%period != 0 || len(p.levels[i]) == 0 {
			continue
		}
		p.check()
		if err := p.activate(i, now); err != nil {
			return err
		}
	}
	return nil
}

func (p *availProbe) check() {
	sim := p.env.Sim
	now := sim.Now()
	for o, a := range p.avail {
		fresh := p.resolveAvail(o)
		if a.Node != fresh.Node || max(a.Free, now) != max(fresh.Free, now) {
			p.t.Fatalf("%s: t=%d: object %d: live entry %+v, fresh %+v", p.name, now, o, a, fresh)
		}
	}
	for i := range sim.Instance().Objects {
		o := core.ObjID(i)
		if _, _, decided := sim.LastUser(o); !decided && sim.ObjectLocation(o).InTransit {
			p.t.Fatalf("%s: t=%d: object %d is in transit with no decided user", p.name, now, o)
		}
	}
	p.checks++
}

// TestLiveAvailMatchesResolve drives the session engine over the sched
// golden topologies and workloads with four batch schedulers, on
// unbounded links and over links of capacity 1 at full and at half speed
// (bounded links make commits elastic: on-time transactions wait for
// late, earlier users of their objects), and runs the availProbe checks
// throughout. The
// decisions of the probed run and of an unwrapped run must both equal
// the rebuild oracle's, which resolves every entry afresh.
func TestLiveAvailMatchesResolve(t *testing.T) {
	mk := func(g *graph.Graph, err error) *graph.Graph {
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	topos := map[string]*graph.Graph{
		"line":    mk(graph.Line(12)),
		"clique":  mk(graph.Clique(12)),
		"grid":    mk(graph.Grid(4, 3)),
		"cluster": mk(graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4})),
	}
	batches := map[string]batch.Scheduler{
		"tour":          batch.Tour{},
		"coloring":      batch.Coloring{},
		"list":          batch.List{},
		"random-suffix": batch.WithSuffixProperty(batch.Randomized{Seed: 42, Tries: 3}),
	}
	sims := map[string]core.SimOptions{
		"plain":           {},
		"capacity-1":      {LinkCapacity: 1},
		"capacity-1-slow": {LinkCapacity: 1, SlowFactor: 2},
	}
	for topo, g := range topos {
		for bn, bs := range batches {
			for sn, so := range sims {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/%s/seed%d", topo, bn, sn, seed)
					in, err := workload.Generate(g, workload.Config{
						K: 2, NumObjects: 6, Rounds: 3,
						Arrival: workload.ArrivalPoisson, Period: 3, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					probe := &availProbe{Bucket: New(Options{Batch: bs}), t: t, name: name}
					rr, err := sched.Run(in, probe, sched.Options{Sim: so, SnapshotEvery: -1})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if rr.Failed || probe.checks == 0 {
						t.Fatalf("%s: failed=%v after %d checks", name, rr.Failed, probe.checks)
					}
					plain, err := sched.Run(in, New(Options{Batch: bs}), sched.Options{Sim: so, SnapshotEvery: -1})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					oracle := New(Options{Batch: bs, RebuildOracle: true})
					ref, err := sched.Run(in, oracle, sched.Options{Sim: so, SnapshotEvery: -1})
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if !slices.Equal(plain.Decisions, ref.Decisions) || !slices.Equal(rr.Decisions, ref.Decisions) {
						t.Fatalf("%s: session decisions differ from the rebuild oracle's", name)
					}
				}
			}
		}
	}
}
