package bucket

import (
	"math"
	"math/bits"
	"strings"
	"testing"
	"testing/quick"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// runBucket runs the bucket engine over a on in and returns the result
// with its metrics snapshot, where the engine counts its Lemma 3/4
// bookkeeping.
func runBucket(t *testing.T, in *core.Instance, a batch.Scheduler) (*sched.RunResult, *obs.Snapshot) {
	t.Helper()
	b := New(Options{Batch: a})
	rr, err := sched.Run(in, b, sched.Options{Obs: obs.New()})
	if err != nil {
		t.Fatalf("%s run failed: %v", b.Name(), err)
	}
	return rr, rr.Metrics
}

// count reads one counter of a snapshot.
func count(s *obs.Snapshot, name obs.Name) int64 { return s.Counters[name.String()] }

// maxLevel is the highest insertion level of a run.
func maxLevel(s *obs.Snapshot) int64 { return s.Histograms[obs.NameBucketLevel.String()].Max }

func TestBucketRequiresBatchScheduler(t *testing.T) {
	g, _ := graph.Clique(4)
	in, err := workload.SingleObjectChain(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(in, New(Options{}), sched.Options{}); err == nil {
		t.Fatal("nil batch scheduler should fail at Start")
	}
}

func TestBucketOnLineBatchArrivals(t *testing.T) {
	g, _ := graph.Line(16)
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 8, Rounds: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, snap := runBucket(t, in, batch.Tour{})
	if ins, sch := count(snap, obs.NameBucketInsertions), count(snap, obs.NameBucketScheduled); ins != int64(len(in.Txns)) || sch != ins {
		t.Errorf("inserted/scheduled = %d/%d, want %d", ins, sch, len(in.Txns))
	}
	if rr.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

func TestBucketLemma3LevelCap(t *testing.T) {
	g, _ := graph.Line(32)
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 10, Rounds: 3,
		Arrival: workload.ArrivalPeriodic, Period: 40, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, snap := runBucket(t, in, batch.Tour{})
	nd := uint64(g.N()) * uint64(g.Diameter())
	lemma3 := bits.Len64(nd-1) + 1
	if maxLevel(snap) > int64(lemma3) {
		t.Errorf("max level used %d exceeds Lemma 3 cap %d", maxLevel(snap), lemma3)
	}
	if n := count(snap, obs.NameBucketOverflows); n != 0 {
		t.Errorf("%d overflows on a model-respecting workload", n)
	}
}

func TestBucketSmallTransactionsUseLowLevels(t *testing.T) {
	// A single co-located transaction has batch cost ~0 and should land in
	// a very low bucket, executing promptly.
	g, _ := graph.Line(64)
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: 5}},
		Txns:    []*core.Transaction{{ID: 0, Node: 5, Objects: []core.ObjID{0}}},
	}
	rr, snap := runBucket(t, in, batch.Tour{})
	if maxLevel(snap) > 1 {
		t.Errorf("co-located transaction landed in level %d, want <= 1", maxLevel(snap))
	}
	if rr.Makespan > 2 {
		t.Errorf("makespan = %d, want <= 2 (prompt execution)", rr.Makespan)
	}
}

func TestBucketActivationPeriods(t *testing.T) {
	// A far transaction (distance 32) cannot fit level < 6; its bucket
	// activates on a multiple of 2^6 at the earliest.
	g, _ := graph.Line(64)
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: 0}},
		Txns:    []*core.Transaction{{ID: 0, Node: 32, Arrival: 1, Objects: []core.ObjID{0}}},
	}
	rr, snap := runBucket(t, in, batch.Tour{})
	if lv := snap.Histograms[obs.NameBucketLevel.String()]; lv.Count != 1 || lv.Min != 6 || lv.Max != 6 {
		t.Errorf("levels = %+v, want the one transaction at level 6", lv)
	}
	// Activation at t=64; the tour batcher budgets 2x the 32-step span
	// (first-leg slack + tour prefix): execution by 128.
	if rr.Makespan < 64 || rr.Makespan > 128 {
		t.Errorf("makespan = %d, want within [64,128]", rr.Makespan)
	}
}

// TestActivationRule checks the one activation rule both bucket engines
// share: level i is due exactly at the multiples of 2^i, and its next
// activation from now is the first of them at or after now.
func TestActivationRule(t *testing.T) {
	for i := 0; i < 6; i++ {
		for now := core.Time(0); now < 100; now++ {
			if got, want := Due(now, i), now%(1<<i) == 0; got != want {
				t.Errorf("Due(%d, %d) = %v, want %v", now, i, got, want)
			}
			next := NextActivation(now, i)
			for at := now; at <= next; at++ {
				if Due(at, i) != (at == next) {
					t.Fatalf("NextActivation(%d, %d) = %d, but level %d is due at %d", now, i, next, i, at)
				}
			}
		}
	}
}

func TestBucketLemma4Adherence(t *testing.T) {
	g, _ := graph.Line(24)
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 8, Rounds: 4,
		Arrival: workload.ArrivalPeriodic, Period: 60, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, snap := runBucket(t, in, batch.Tour{})
	sch, within := count(snap, obs.NameBucketScheduled), count(snap, obs.NameBucketWithinLemma4)
	if sch != int64(len(in.Txns)) || within != sch {
		t.Errorf("Lemma 4 bound missed for %d/%d transactions", sch-within, sch)
	}
}

func TestBucketAcrossTopologiesAndBatchers(t *testing.T) {
	tops := []func() (*graph.Graph, error){
		func() (*graph.Graph, error) { return graph.Line(16) },
		func() (*graph.Graph, error) { return graph.Cluster(graph.ClusterSpec{Alpha: 3, Beta: 4, Gamma: 5}) },
		func() (*graph.Graph, error) { return graph.Star(graph.StarSpec{Rays: 4, RayLen: 4}) },
		func() (*graph.Graph, error) { return graph.Hypercube(3) },
	}
	for _, mk := range tops {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range []batch.Scheduler{batch.Tour{}, batch.Coloring{}} {
			in, err := workload.Generate(g, workload.Config{
				K: 2, NumObjects: 6, Rounds: 2,
				Arrival: workload.ArrivalPoisson, Period: 15, Seed: 11,
			})
			if err != nil {
				t.Fatal(err)
			}
			runBucket(t, in, a) // driver + engine validate feasibility
		}
	}
}

// Property: bucket scheduling is always engine-feasible on random line
// workloads with both batch algorithms.
func TestBucketAlwaysFeasible(t *testing.T) {
	check := func(seed int64) bool {
		s := seed
		if s < 0 {
			s = -s
		}
		g, err := graph.Line(8 + int(s%12))
		if err != nil {
			return false
		}
		in, err := workload.Generate(g, workload.Config{
			K:          1 + int(s%2),
			NumObjects: 5,
			Rounds:     2,
			Arrival:    workload.ArrivalKind(s % 4),
			Period:     10,
			Seed:       s,
		})
		if err != nil {
			return false
		}
		for _, a := range []batch.Scheduler{batch.Tour{}, batch.Coloring{}} {
			if _, err := sched.Run(in, New(Options{Batch: a}), sched.Options{}); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestLevelsPastTwoTo62 runs a 3-node path with edges of weight 2^60,
// where Lemma 3's n·D product needs level 64, under every batch scheduler
// and both engines: Start must refuse the graph, naming Lemma 3, rather
// than run with a wrapped level count or period.
func TestLevelsPastTwoTo62(t *testing.T) {
	g := graph.MustNew(3, []graph.Link{{U: 0, V: 1, W: 1 << 60}, {U: 1, V: 2, W: 1 << 60}})
	if _, err := MaxLevel(g, 1); err == nil || !strings.Contains(err.Error(), "Lemma 3") {
		t.Errorf("MaxLevel: err = %v, want a refusal naming Lemma 3", err)
	}
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: 0}, {ID: 1, Origin: 2}},
		Txns: []*core.Transaction{
			{ID: 0, Node: 2, Objects: []core.ObjID{0}},
			{ID: 1, Node: 0, Objects: []core.ObjID{0, 1}},
			{ID: 2, Node: 1, Arrival: 1, Objects: []core.ObjID{1}},
		},
	}
	batches := []batch.Scheduler{
		batch.Tour{}, batch.Coloring{}, batch.List{},
		batch.Randomized{Seed: 1},
		batch.WithSuffixProperty(batch.Tour{}),
	}
	for _, bs := range batches {
		for _, rebuild := range []bool{false, true} {
			b := New(Options{Batch: bs, RebuildOracle: rebuild})
			rr, err := sched.Run(in, b, sched.Options{})
			if rr != nil || err == nil || !strings.Contains(err.Error(), "start: bucket: ") || !strings.Contains(err.Error(), "Lemma 3") {
				t.Errorf("%s rebuild=%v: err = %v, want a refusal at start naming Lemma 3", bs.Name(), rebuild, err)
			}
		}
	}
}

func TestLemma4BoundSaturates(t *testing.T) {
	if got := lemma4Bound(3); got != 4*32 {
		t.Errorf("lemma4Bound(3) = %d, want 128", got)
	}
	// 56·2^57 is the largest bound below 2^63; from level 56 on it saturates.
	if got := lemma4Bound(55); got != 56<<57 {
		t.Errorf("lemma4Bound(55) = %d, want %d", got, int64(56)<<57)
	}
	for _, level := range []int{56, 60, 62} {
		if got := lemma4Bound(level); got != math.MaxInt64 {
			t.Errorf("lemma4Bound(%d) = %d, want saturation at %d", level, got, int64(math.MaxInt64))
		}
	}
}
