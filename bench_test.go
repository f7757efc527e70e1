package dtm

// The benchmark harness regenerates every table and figure of the
// constructed evaluation (DESIGN.md §5): one benchmark per experiment,
// printing the experiment's table on the first iteration so that
//
//	go test -bench=. -benchmem ./... | tee bench_output.txt
//
// reproduces the whole evaluation, plus the Table 6 CPU microbenchmarks of
// the scheduling computations themselves (Sections III-B and IV-D analyze
// their sequential run-time complexity).
//
// Every experiment routes its trials through the internal/runner sweep
// subsystem; the Config zero value (Workers: 0) runs them on a
// GOMAXPROCS-wide worker pool, and the tables printed here are
// byte-identical to a sequential (Workers: 1) run by the runner's
// determinism contract. BenchmarkSweepWorkers measures the pool's effect
// directly.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/experiments"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		tb, err := e.Run(experiments.Config{Seed: 42})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if _, done := printOnce.LoadOrStore(id, true); !done {
			b.StopTimer()
			fmt.Fprintf(os.Stdout, "\n[%s] %s\n# claim: %s\n", e.ID, e.Title, e.Claim)
			if err := tb.Render(os.Stdout); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	}
}

func BenchmarkTable1Summary(b *testing.B)        { benchExperiment(b, "T1") }
func BenchmarkFigure1CliqueK(b *testing.B)       { benchExperiment(b, "F1") }
func BenchmarkFigure2CliqueN(b *testing.B)       { benchExperiment(b, "F2") }
func BenchmarkFigure3Hypercube(b *testing.B)     { benchExperiment(b, "F3") }
func BenchmarkFigure4ButterflyGrid(b *testing.B) { benchExperiment(b, "F4") }
func BenchmarkFigure5Line(b *testing.B)          { benchExperiment(b, "F5") }
func BenchmarkFigure6Cluster(b *testing.B)       { benchExperiment(b, "F6") }
func BenchmarkFigure7Star(b *testing.B)          { benchExperiment(b, "F7") }
func BenchmarkTable2GreedyBounds(b *testing.B)   { benchExperiment(b, "T2") }
func BenchmarkTable3BucketLemmas(b *testing.B)   { benchExperiment(b, "T3") }
func BenchmarkFigure8Crossover(b *testing.B)     { benchExperiment(b, "F8") }
func BenchmarkTable4Distributed(b *testing.B)    { benchExperiment(b, "T4") }
func BenchmarkTable5Coordinator(b *testing.B)    { benchExperiment(b, "T5") }
func BenchmarkFigure9HalfSpeed(b *testing.B)     { benchExperiment(b, "F9") }
func BenchmarkFigure10Load(b *testing.B)         { benchExperiment(b, "F10") }
func BenchmarkTable7BucketAblation(b *testing.B) { benchExperiment(b, "T7") }
func BenchmarkTable8BatchQuality(b *testing.B)   { benchExperiment(b, "T8") }
func BenchmarkTable9ClosedLoop(b *testing.B)     { benchExperiment(b, "T9") }
func BenchmarkFigure11TimeVsComm(b *testing.B)   { benchExperiment(b, "F11") }
func BenchmarkFigure12Congestion(b *testing.B)   { benchExperiment(b, "F12") }
func BenchmarkTable10HubPlacement(b *testing.B)  { benchExperiment(b, "T10") }
func BenchmarkFigure13Padding(b *testing.B)      { benchExperiment(b, "F13") }
func BenchmarkTable11Faults(b *testing.B)        { benchExperiment(b, "T11") }
func BenchmarkTable12Scale(b *testing.B)         { benchExperiment(b, "T12") }
func BenchmarkTable14Stream(b *testing.B)        { benchExperiment(b, "T14") }
func BenchmarkTable15Window(b *testing.B)        { benchExperiment(b, "T15") }

// BenchmarkSweepWorkers times one trial-heavy experiment (T1) at several
// worker-pool sizes; the rendered tables are byte-identical across them.
func BenchmarkSweepWorkers(b *testing.B) {
	e, ok := experiments.ByID("T1")
	if !ok {
		b.Fatal("missing T1")
	}
	for _, workers := range []int{1, 0} {
		name := "sequential"
		if workers == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.Config{Quick: true, Seed: 42, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 6: CPU cost of the scheduling computations themselves ---

// engineVariants names the two scheduling engines every CPU benchmark
// runs under: the incremental conflict-index engine (default) and the
// per-arrival rebuild oracle. -benchmem shows the ns and alloc gap
// between them; `dtmbench -perfjson` extends the same comparison to
// n=1024 as per-arrival rows of BENCH_perf.json.
var engineVariants = []struct {
	name    string
	rebuild bool
}{
	{"incremental", false},
	{"rebuild", true},
}

// BenchmarkGreedyScheduleCPU measures one full online greedy run (all
// coloring work) per instance size and engine; Section III-B claims
// O(n' + m' log n') per step.
func BenchmarkGreedyScheduleCPU(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g, err := graph.Clique(n)
		if err != nil {
			b.Fatal(err)
		}
		in, err := workload.Generate(g, workload.Config{
			K: 3, NumObjects: n, Rounds: 3,
			Arrival: workload.ArrivalPeriodic, Period: 2, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range engineVariants {
			b.Run(fmt.Sprintf("clique-n%d/%s", n, eng.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := greedy.New(greedy.Options{RebuildOracle: eng.rebuild})
					if _, err := sched.Run(in, s, sched.Options{SnapshotEvery: -1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBucketScheduleCPU measures the bucket conversion (level probes
// plus activations) per instance size and engine; Section IV-D claims
// polynomial time.
func BenchmarkBucketScheduleCPU(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		g, err := graph.Line(n)
		if err != nil {
			b.Fatal(err)
		}
		in, err := workload.Generate(g, workload.Config{
			K: 2, NumObjects: n / 2, Rounds: 2,
			Arrival: workload.ArrivalPeriodic, Period: core.Time(n), Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range engineVariants {
			b.Run(fmt.Sprintf("line-n%d/%s", n, eng.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					s := bucket.New(bucket.Options{Batch: batch.Tour{}, RebuildOracle: eng.rebuild})
					if _, err := sched.Run(in, s, sched.Options{SnapshotEvery: -1}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBatchSchedulersCPU measures the two offline algorithms on one
// batch problem.
func BenchmarkBatchSchedulersCPU(b *testing.B) {
	g, err := graph.Line(128)
	if err != nil {
		b.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 64, Rounds: 1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	avail := make(map[core.ObjID]batch.Avail)
	for _, o := range in.Objects {
		avail[o.ID] = batch.Avail{Node: o.Origin}
	}
	p := &batch.Problem{G: g, Txns: in.Txns, Avail: avail}
	for _, s := range []batch.Scheduler{batch.Tour{}, batch.Coloring{}} {
		b.Run(s.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := s.Schedule(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDistributedProtocolCPU measures a full Algorithm 3 run.
func BenchmarkDistributedProtocolCPU(b *testing.B) {
	g, err := graph.Grid(5, 5)
	if err != nil {
		b.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 12, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 40, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(in, NewDistributed(DistributedOptions{Batch: batch.Tour{}, Seed: 7}),
			RunOptions{SnapshotEvery: -1}); err != nil {
			b.Fatal(err)
		}
	}
}
