package dtm

import (
	"testing"
)

// The facade is exercised end to end exactly the way the README shows.
func TestFacadeQuickstartFlow(t *testing.T) {
	g, err := Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 8, Rounds: 3,
		Arrival: ArrivalPeriodic, Period: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(in, NewGreedy(GreedyOptions{}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Makespan <= 0 || rr.MaxRatio <= 0 {
		t.Errorf("result = makespan %d ratio %.2f", rr.Makespan, rr.MaxRatio)
	}
	// Trace capture and re-validation round trip.
	tr := CaptureTrace(in, rr)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace validation: %v", err)
	}
	// Decision log replays.
	if _, err := Replay(in, rr.Decisions, SimOptions{}); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// A run given no registry keeps a private one: the registry is the only
// count of what the engine did, so its snapshot is never missing.
func TestFacadeRunKeepsARegistry(t *testing.T) {
	g, err := Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{K: 2, NumObjects: 8, Rounds: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(in, NewGreedy(GreedyOptions{}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Metrics == nil {
		t.Fatal("Run without RunOptions.Obs returned no metrics")
	}
	if got := rr.Metrics.Counters["greedy.colors_assigned"]; got != int64(len(in.Txns)) {
		t.Errorf("greedy.colors_assigned = %d, want %d transactions", got, len(in.Txns))
	}
}

func TestFacadeSchedulers(t *testing.T) {
	g, err := Line(16)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 8, Rounds: 2,
		Arrival: ArrivalPeriodic, Period: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	schedulers := []Scheduler{
		NewGreedy(GreedyOptions{}),
		NewCoordinator(0, GreedyOptions{}),
		NewBucket(BucketOptions{Batch: TourBatch()}),
		NewBucket(BucketOptions{Batch: ColoringBatch()}),
		NewBucket(BucketOptions{Batch: ListBatch()}),
		NewBucket(BucketOptions{Batch: WithSuffixProperty(TourBatch())}),
	}
	for _, s := range schedulers {
		if _, err := Run(in, s, RunOptions{}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestFacadeDistributed(t *testing.T) {
	g, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 6, Rounds: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	proto := NewDistributed(DistributedOptions{Batch: TourBatch(), Seed: 2})
	res, err := Run(in, proto, RunOptions{Obs: NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Counters["distnet.messages"] == 0 {
		t.Error("distributed run sent no messages")
	}
	// The registry default is the same protocol, and it runs at half
	// speed without being told.
	s, err := NewEngine("distributed")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(in, s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.SlowFactor != 2 {
		t.Errorf("NewEngine(distributed) ran at SlowFactor %d, want 2", rr.SlowFactor)
	}
}

func TestFacadeClosedLoop(t *testing.T) {
	g, err := Clique(6)
	if err != nil {
		t.Fatal(err)
	}
	objects := make([]*Object, 6)
	for i := range objects {
		objects[i] = &Object{ID: ObjID(i), Origin: NodeID(i)}
	}
	rr, in, err := RunClosedLoop(g, ClosedLoopConfig{
		Objects: objects,
		Rounds:  2,
		Gen: func(node NodeID, round int) []ObjID {
			return []ObjID{ObjID((int(node) + round) % 6)}
		},
	}, NewGreedy(GreedyOptions{}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Txns) != 12 {
		t.Errorf("closed loop issued %d transactions, want 12", len(in.Txns))
	}
	if rr.Makespan <= 0 {
		t.Error("no makespan")
	}
}

func TestFacadeCover(t *testing.T) {
	g, err := Star(StarSpec{Rays: 3, RayLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildCover(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}
