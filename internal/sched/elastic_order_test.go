package sched_test

import (
	"fmt"
	"testing"

	"dtm/internal/core"
	"dtm/internal/engine"
	"dtm/internal/obs"
	"dtm/internal/sched"
)

// TestElasticCommitsKeepObjectOrder runs every registry engine over the
// golden topologies and workloads with elastic commits, over links of
// capacity 1 at full and at half speed, and checks each run's event
// stream: the users of every object commit in (decided exec, ID) order.
func TestElasticCommitsKeepObjectOrder(t *testing.T) {
	sims := map[string]core.SimOptions{
		"capacity-1":      {LinkCapacity: 1},
		"capacity-1-slow": {LinkCapacity: 1, SlowFactor: 2},
	}
	for topo, g := range diffTopologies(t) {
		for _, d := range engine.All() {
			for sn, so := range sims {
				for seed := int64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/%s/%s/seed%d", topo, d.ID, sn, seed)
					in := goldenInstance(t, g, 3, seed)
					sink := &obs.SliceSink{}
					m := obs.New()
					m.SetSink(sink)
					if _, err := sched.Run(in, d.New(), sched.Options{Sim: so, SnapshotEvery: -1, Obs: m}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					checkCommitOrder(t, name, in, sink.Events())
				}
			}
		}
	}
}

// checkCommitOrder replays the decide and commit events of a run on in:
// when a transaction commits, no other decided, uncommitted user of any
// of its objects may precede it in (exec, ID) order.
func checkCommitOrder(t *testing.T, name string, in *core.Instance, events []obs.Event) {
	t.Helper()
	exec := map[int]int64{}
	waiting := map[core.ObjID][]int{} // decided, uncommitted users per object
	commits := 0
	for _, e := range events {
		switch e.Kind {
		case "decide":
			exec[e.Tx] = e.Value
			for _, o := range in.Txns[e.Tx].Objects {
				waiting[o] = append(waiting[o], e.Tx)
			}
		case "commit":
			commits++
			for _, o := range in.Txns[e.Tx].Objects {
				rest := waiting[o][:0]
				for _, u := range waiting[o] {
					if u == e.Tx {
						continue
					}
					if exec[u] < exec[e.Tx] || exec[u] == exec[e.Tx] && u < e.Tx {
						t.Fatalf("%s: t=%d: transaction %d (exec %d) committed ahead of %d (exec %d) on object %d",
							name, e.At, e.Tx, exec[e.Tx], u, exec[u], o)
					}
					rest = append(rest, u)
				}
				waiting[o] = rest
			}
		}
	}
	if commits != len(in.Txns) {
		t.Fatalf("%s: %d of %d transactions committed", name, commits, len(in.Txns))
	}
}
