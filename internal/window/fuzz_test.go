package window

import (
	"fmt"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// FuzzWindowDraws is the priority-draw determinism fuzzer: for any
// workload shape and any priority seed, two runs of the window engine must
// produce byte-identical decision logs, the parallel engine must match the
// sequential one, and the schedule must replay cleanly. This is the
// machine-checked core of the engine's contract — the randomness is
// confined to the seeded draw stream, never to execution order.
func FuzzWindowDraws(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(2), uint8(3), false)
	f.Add(int64(42), int64(7), uint8(4), uint8(2), true)
	f.Add(int64(0), int64(3), uint8(1), uint8(6), false)
	f.Fuzz(func(t *testing.T, prioSeed, wlSeed int64, k, rounds uint8, batch bool) {
		kk := int(k%4) + 1
		rr := int(rounds%6) + 1
		g, err := graph.Clique(10)
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.Config{
			K: kk, NumObjects: 8, Rounds: rr,
			Arrival: workload.ArrivalPeriodic, Period: 2, Seed: wlSeed,
		}
		if batch {
			cfg.Arrival = workload.ArrivalBatch
		}
		in, err := workload.Generate(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		run := func(p int) *sched.RunResult {
			res, err := sched.Run(in, New(Options{Seed: prioSeed}), sched.Options{
				Sim: core.SimOptions{Parallel: p},
			})
			if err != nil {
				t.Fatalf("run (P=%d) failed: %v", p, err)
			}
			return res
		}
		base := run(0)
		if got := fmt.Sprintf("%+v", run(0).Decisions); got != fmt.Sprintf("%+v", base.Decisions) {
			t.Fatal("same seed, different decision logs")
		}
		if got := fmt.Sprintf("%+v", run(2).Decisions); got != fmt.Sprintf("%+v", base.Decisions) {
			t.Fatal("parallel (P=2) decision log differs from sequential")
		}
		if _, err := core.Replay(in, base.Decisions, core.SimOptions{}, nil); err != nil {
			t.Fatalf("replay rejected window schedule: %v", err)
		}
	})
}
