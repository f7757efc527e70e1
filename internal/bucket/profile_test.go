package bucket

import (
	"testing"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// BenchmarkBucketTourLine1024 is the bucket-tour-line n=1024 case of
// `dtmbench -perfjson` as a plain Go benchmark, so the sessionized probe
// path can be profiled directly (`go test -bench BucketTourLine1024
// -cpuprofile ...`) without going through the bench harness.
func BenchmarkBucketTourLine1024(b *testing.B) {
	const n = 1024
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
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sched.Run(in, New(Options{Batch: batch.Tour{}}), sched.Options{SnapshotEvery: -1}); err != nil {
			b.Fatal(err)
		}
	}
}
