package sched_test

// Open-system streaming driver tests: bounded-memory (leak guard), the
// finite API as a special case of the streaming one, retire-vs-keep
// equivalence of every aggregate, and source-contract enforcement.

import (
	"bytes"
	"encoding/json"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// TestStreamLeakGuard sustains a Poisson load well below the stability
// frontier and asserts the live state plateaus: retirement fires, the
// second-half window/queue peaks stay within a constant factor of the
// first-half peaks (a leak grows linearly, so a doubling bound separates
// cleanly), and the final window is a small fraction of total arrivals.
func TestStreamLeakGuard(t *testing.T) {
	g, err := graph.Clique(32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.StreamConfig{K: 2, NumObjects: 32, Rate: 0.25, Seed: 42}
	src, err := workload.NewPoissonSource(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := obs.New()
	const arrivals = 6000
	res, err := sched.RunStream(g, workload.UniformObjects(g, 32, 42), src,
		greedy.New(greedy.Options{}), sched.StreamOptions{Obs: m, MaxArrivals: arrivals})
	if err != nil {
		t.Fatalf("stream run: %v", err)
	}
	if res.Arrivals != arrivals || res.Completed != arrivals {
		t.Fatalf("arrivals=%d completed=%d, want %d each", res.Arrivals, res.Completed, arrivals)
	}
	if res.Retired == 0 {
		t.Fatal("retirement never fired: live state is O(arrivals)")
	}
	if res.WindowPeakSecondHalf > 2*res.WindowPeakFirstHalf+32 {
		t.Fatalf("window grows: first-half peak %d, second-half peak %d",
			res.WindowPeakFirstHalf, res.WindowPeakSecondHalf)
	}
	if res.QueuePeakSecondHalf > 2*res.QueuePeakFirstHalf+32 {
		t.Fatalf("queue grows: first-half peak %d, second-half peak %d",
			res.QueuePeakFirstHalf, res.QueuePeakSecondHalf)
	}
	// The final snapshot's gauges are the last observed live state: the
	// window must be far below the arrival count (it includes at most the
	// in-flight queue plus one unretired batch of 512).
	win := res.Metrics.Gauges[obs.NameStreamWindowTxns.String()].Value
	if win > arrivals/4 {
		t.Fatalf("final window %d is not bounded (of %d arrivals)", win, arrivals)
	}
	live := res.Metrics.Gauges[obs.NameStreamLiveState.String()].Value
	if live < win {
		t.Fatalf("live-state gauge %d below window %d", live, win)
	}
	if got := res.Metrics.Counters[obs.NameStreamRetired.String()]; got != res.Retired {
		t.Fatalf("retired counter %d != result %d", got, res.Retired)
	}
}

// TestStreamInstanceSourceMatchesRun pins the finite API as a special case
// of the streaming one: running an instance through NewInstanceSource must
// produce the same decisions and aggregates as the classic finite driver.
// Periodic arrivals keep the instance's IDs in (arrival, ID) order, so the
// stream driver's dense re-numbering is the identity.
func TestStreamInstanceSourceMatchesRun(t *testing.T) {
	g, err := graph.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 8, Rounds: 4,
		Arrival: workload.ArrivalPeriodic, Period: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sched.Run(in, greedy.New(greedy.Options{}), sched.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.RunStream(g, in.Objects, workload.NewInstanceSource(in),
		greedy.New(greedy.Options{}), sched.StreamOptions{CollectDecisions: true})
	if err != nil {
		t.Fatalf("stream run: %v", err)
	}
	want, err := json.Marshal(rr.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("decisions differ\nfinite:    %s\nstreaming: %s", want, got)
	}
	if res.Makespan != rr.Result.Makespan {
		t.Fatalf("makespan %d != finite %d", res.Makespan, rr.Result.Makespan)
	}
	if res.MaxSojourn != rr.Result.MaxLat {
		t.Fatalf("max sojourn %d != finite max latency %d", res.MaxSojourn, rr.Result.MaxLat)
	}
	if res.TotalComm != rr.Result.TotalComm {
		t.Fatalf("total comm %d != finite %d", res.TotalComm, rr.Result.TotalComm)
	}
	if res.Completed != int64(len(in.Txns)) {
		t.Fatalf("completed %d != %d transactions", res.Completed, len(in.Txns))
	}
}

// TestStreamRetireMatchesKeepHistory runs the same seeded source twice —
// with the bounded window and with full history (CollectDecisions) — and
// requires every aggregate to agree: retirement must be invisible to
// everything except the memory gauges.
func TestStreamRetireMatchesKeepHistory(t *testing.T) {
	g, err := graph.Clique(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.StreamConfig{K: 2, NumObjects: 12, Rate: 0.5, Seed: 9}
	run := func(keep bool) *sched.StreamResult {
		src, err := workload.NewPoissonSource(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.RunStream(g, workload.UniformObjects(g, 12, 9), src,
			greedy.New(greedy.Options{}),
			sched.StreamOptions{MaxArrivals: 3000, CollectDecisions: keep})
		if err != nil {
			t.Fatalf("keep=%v: %v", keep, err)
		}
		return res
	}
	retired, kept := run(false), run(true)
	if retired.Retired == 0 {
		t.Fatal("retirement never fired")
	}
	if kept.Retired != 0 {
		t.Fatalf("CollectDecisions retired %d transactions", kept.Retired)
	}
	if retired.Arrivals != kept.Arrivals || retired.Completed != kept.Completed {
		t.Fatalf("counts differ: retired %d/%d, kept %d/%d",
			retired.Arrivals, retired.Completed, kept.Arrivals, kept.Completed)
	}
	if retired.Makespan != kept.Makespan || retired.MaxSojourn != kept.MaxSojourn ||
		retired.MeanSojourn != kept.MeanSojourn || retired.TotalComm != kept.TotalComm {
		t.Fatalf("aggregates differ:\nretired: %+v\nkept:    %+v", retired, kept)
	}
	if retired.SojournP50 != kept.SojournP50 || retired.SojournP95 != kept.SojournP95 ||
		retired.SojournP99 != kept.SojournP99 {
		t.Fatalf("percentiles differ:\nretired: %+v\nkept:    %+v", retired, kept)
	}
	if retired.QueuePeak != kept.QueuePeak ||
		retired.QueuePeakFirstHalf != kept.QueuePeakFirstHalf ||
		retired.QueuePeakSecondHalf != kept.QueuePeakSecondHalf {
		t.Fatalf("queue peaks differ:\nretired: %+v\nkept:    %+v", retired, kept)
	}
}

// badSource violates the non-decreasing-time contract on its third arrival.
type badSource struct{ n int }

func (b *badSource) Next() (workload.Arrival, bool) {
	b.n++
	at := core.Time(b.n * 4)
	if b.n == 3 {
		at = 2
	}
	return workload.Arrival{Node: 0, At: at, Objects: []core.ObjID{0}}, true
}

// TestStreamMonotonicityEnforced pins that a time-travelling source fails
// the run with a diagnostic instead of silently truncating it.
func TestStreamMonotonicityEnforced(t *testing.T) {
	g, err := graph.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	objs := []*core.Object{{ID: 0, Origin: 0}}
	res, err := sched.RunStream(g, objs, &badSource{}, greedy.New(greedy.Options{}),
		sched.StreamOptions{MaxArrivals: 10})
	if err == nil {
		t.Fatal("want monotonicity error, got nil")
	}
	if !res.Failed || res.Err == nil {
		t.Fatalf("result not marked failed: %+v", res)
	}
}

// TestStreamValidation covers the argument checks.
func TestStreamValidation(t *testing.T) {
	g, err := graph.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.RunStream(g, nil, nil, greedy.New(greedy.Options{}),
		sched.StreamOptions{}); err == nil {
		t.Error("nil source accepted")
	}
	src, err := workload.NewPoissonSource(g, workload.StreamConfig{K: 1, NumObjects: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.RunStream(g, workload.UniformObjects(g, 2, 1), src,
		greedy.New(greedy.Options{}), sched.StreamOptions{MaxArrivals: -1}); err == nil {
		t.Error("negative MaxArrivals accepted")
	}
}
