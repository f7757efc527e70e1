package dtm

// Scale tests: the library must handle instances well beyond the experiment
// sizes. Skipped under -short.

import (
	"testing"

	"dtm/internal/batch"
)

func TestScaleGreedyHypercube1024(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g, err := Hypercube(10) // 1024 nodes
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 4, NumObjects: 512, Rounds: 4,
		Arrival: ArrivalPeriodic, Period: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(in, NewGreedy(GreedyOptions{}), RunOptions{SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Txns) != 4096 {
		t.Fatalf("txns = %d", len(in.Txns))
	}
	if rr.Makespan <= 0 || rr.MaxRatio <= 0 {
		t.Errorf("degenerate result: %+v", rr.Result)
	}
	t.Logf("hypercube10: 4096 txns, makespan %d, max ratio %.2f", rr.Makespan, rr.MaxRatio)
}

func TestScaleBucketLine512(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g, err := Line(512)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 256, Rounds: 2,
		Arrival: ArrivalPeriodic, Period: 512, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(in, NewBucket(BucketOptions{Batch: batch.List{}}), RunOptions{SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("line512: %d txns, makespan %d, max ratio %.2f", len(in.Txns), rr.Makespan, rr.MaxRatio)
}

func TestScaleDistributedGrid64(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	g, err := Grid(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 24, Rounds: 2,
		Arrival: ArrivalPeriodic, Period: 60, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	proto := NewDistributed(DistributedOptions{Batch: TourBatch(), Seed: 5})
	res, err := Run(in, proto, RunOptions{SnapshotEvery: 4, Obs: NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("grid8x8 distributed: %d txns, makespan %d, %d messages, ratio %.2f",
		len(in.Txns), res.Makespan, res.Metrics.Counters["distnet.messages"], res.MaxRatio)
}
