package core_test

import (
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// BenchmarkSimReplay times the simulator alone (the core.Sim
// exec/dispatch layer): it records one greedy decision log on
// Grid(32,32), then replays it through core.Replay on every iteration.
// The trees are built by the recording run, so a replay pays only for
// events, dispatch and legs. Besides ns/op it reports the legs a replay
// starts (core.object_moves) and the hops the frozen per-hop reference
// makes for the same log.
func BenchmarkSimReplay(b *testing.B) {
	g, err := graph.Grid(32, 32)
	if err != nil {
		b.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 1024, Rounds: 2, Arrival: workload.ArrivalPoisson, Period: 64,
		Pop: workload.PopZipf, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rr, err := sched.Run(in, greedy.New(greedy.Options{}), sched.Options{SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	m := obs.New()
	if _, err := core.Replay(in, rr.Decisions, core.SimOptions{}, m); err != nil {
		b.Fatal(err)
	}
	legs := m.Snapshot().Counters[obs.NameCoreObjectMoves.String()]
	hops, err := core.HopCount(in, rr.Decisions, core.SimOptions{})
	if err != nil {
		b.Fatal(err)
	}
	if legs == 0 {
		b.Fatal("the decision log moves no object")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Replay(in, rr.Decisions, core.SimOptions{}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(legs), "legs/op")
	b.ReportMetric(float64(hops), "hops/op")
}
