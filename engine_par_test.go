package dtm

// Identity test for SimOptions.Parallel: a run with it set must be
// byte-identical to the sequential run — decision logs, results, merged
// metric snapshots, and the emitted event stream — for every scheduler,
// topology, and seed. Parallel only builds the graph's shortest-path
// trees concurrently before the run; every step then runs sequentially
// (DESIGN.md §12), so any divergence is a bug in the warm-up, not
// tolerable jitter.
//
// Snapshots are disabled (SnapshotEvery: -1) because sched.snapshot_ns
// measures wall-clock time; every other instrument in the registry is
// deterministic and must match bytewise.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"dtm/internal/core"
	"dtm/internal/obs"
	"dtm/internal/sched"
)

// pinnedRun captures everything a run externalizes.
type pinnedRun struct {
	decisions []byte
	result    []byte
	metrics   []byte
	events    []byte
	makespan  Time
}

func runPinned(t *testing.T, in *Instance, s Scheduler, base RunOptions, parallel int) pinnedRun {
	t.Helper()
	opts := base
	opts.SnapshotEvery = -1
	opts.Obs = NewMetrics()
	sink := &obs.SliceSink{}
	opts.Obs.SetSink(sink)
	opts.Sim.Parallel = parallel
	rr, err := Run(in, s, opts)
	if err != nil {
		t.Fatalf("parallel=%d: run failed: %v", parallel, err)
	}
	return pinRun(t, rr, sink)
}

func pinRun(t *testing.T, rr *RunResult, sink *obs.SliceSink) pinnedRun {
	t.Helper()
	var p pinnedRun
	var err error
	if p.decisions, err = json.Marshal(rr.Decisions); err != nil {
		t.Fatal(err)
	}
	if p.result, err = json.Marshal(rr.Result); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rr.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	p.metrics = buf.Bytes()
	if p.events, err = json.Marshal(sink.Events()); err != nil {
		t.Fatal(err)
	}
	p.makespan = rr.Makespan
	return p
}

func comparePinned(t *testing.T, seq, par pinnedRun, parallel int) {
	t.Helper()
	if !bytes.Equal(seq.decisions, par.decisions) {
		t.Fatalf("P=%d: decision logs differ\nsequential: %s\nparallel:   %s", parallel, seq.decisions, par.decisions)
	}
	if !bytes.Equal(seq.result, par.result) {
		t.Fatalf("P=%d: results differ\nsequential: %s\nparallel:   %s", parallel, seq.result, par.result)
	}
	if !bytes.Equal(seq.metrics, par.metrics) {
		t.Fatalf("P=%d: metric snapshots differ\nsequential: %s\nparallel:   %s", parallel, seq.metrics, par.metrics)
	}
	if !bytes.Equal(seq.events, par.events) {
		t.Fatalf("P=%d: event streams differ (lengths %d vs %d)", parallel, len(seq.events), len(par.events))
	}
	if seq.makespan != par.makespan {
		t.Fatalf("P=%d: makespan differs: sequential %d, parallel %d", parallel, seq.makespan, par.makespan)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	type parCase struct {
		name string
		mk   func() Scheduler
		opts RunOptions
	}
	// Base cases come from the registry: every engine (window and the
	// distributed protocol included) is constructed through its Desc, so a
	// new engine joins the parallel identity check with no edit here.
	var cases []parCase
	for _, d := range Engines() {
		cases = append(cases, parCase{d.ID, d.New, RunOptions{}})
	}
	if len(cases) < 8 {
		t.Fatalf("registry lists only %d engines, want the eight variants", len(cases))
	}
	// Feature-knob extras the registry defaults cannot spell. Half-speed
	// objects stretch every travel time; bounded links exercise the
	// deterministic edge queues and the elastic commits' due-set retries.
	cases = append(cases,
		parCase{"greedy-pad2", func() Scheduler { return NewGreedy(GreedyOptions{Pad: 2}) }, RunOptions{}},
		parCase{"greedy-slow", func() Scheduler { return NewGreedy(GreedyOptions{}) },
			RunOptions{Sim: SimOptions{SlowFactor: 2}}},
		parCase{"greedy-elastic-slow", func() Scheduler { return NewGreedy(GreedyOptions{}) },
			RunOptions{Sim: SimOptions{LinkCapacity: 1, SlowFactor: 2}}},
		parCase{"greedy-linkcap", func() Scheduler { return NewGreedy(GreedyOptions{Pad: 2}) },
			RunOptions{Sim: SimOptions{LinkCapacity: 1}}},
		parCase{"bucket-tour-slow", func() Scheduler { return NewBucket(BucketOptions{Batch: TourBatch()}) },
			RunOptions{Sim: SimOptions{SlowFactor: 2}}},
	)
	for topoName, g := range diffTopologies(t) {
		for _, c := range cases {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", topoName, c.name, seed)
				t.Run(name, func(t *testing.T) {
					in, err := Generate(g, WorkloadConfig{
						K: 2, NumObjects: 6, Rounds: 3,
						Arrival: ArrivalPoisson, Period: 3, Seed: seed,
					})
					if err != nil {
						t.Fatal(err)
					}
					seq := runPinned(t, in, c.mk(), c.opts, 0)
					for _, parallel := range []int{2, 4} {
						par := runPinned(t, in, c.mk(), c.opts, parallel)
						comparePinned(t, seq, par, parallel)
					}
				})
			}
		}
	}
}

// TestParallelClosedLoopMatchesSequential pins the closed-loop driver,
// whose arrival process itself depends on commit times: any divergence
// in the engine would compound into a different instance.
func TestParallelClosedLoopMatchesSequential(t *testing.T) {
	g, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	objects := make([]*Object, 8)
	for i := range objects {
		objects[i] = &Object{ID: ObjID(i), Origin: NodeID((i * 3) % g.N())}
	}
	cfg := sched.ClosedLoopConfig{
		Objects: objects,
		Rounds:  3,
		Gen: func(node NodeID, round int) []ObjID {
			a := ObjID((int(node) + round) % len(objects))
			b := ObjID((int(node)*5 + round*7 + 1) % len(objects))
			if a == b {
				b = (b + 1) % ObjID(len(objects))
			}
			if a > b {
				a, b = b, a
			}
			return []ObjID{a, b}
		},
	}
	run := func(parallel int) (pinnedRun, []byte) {
		opts := RunOptions{SnapshotEvery: -1, Obs: NewMetrics()}
		sink := &obs.SliceSink{}
		opts.Obs.SetSink(sink)
		opts.Sim.Parallel = parallel
		rr, in, err := sched.RunClosedLoop(g, cfg, NewGreedy(GreedyOptions{}), opts)
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		inJSON, err := json.Marshal(in.Txns)
		if err != nil {
			t.Fatal(err)
		}
		return pinRun(t, rr, sink), inJSON
	}
	seq, seqIn := run(0)
	par, parIn := run(4)
	comparePinned(t, seq, par, 4)
	if !bytes.Equal(seqIn, parIn) {
		t.Fatalf("closed-loop generated different instances:\nsequential: %s\nparallel:   %s", seqIn, parIn)
	}
}

// TestParallelStreamMatchesSequential pins the open-system streaming
// driver: a seeded source run with SimOptions.Parallel must be
// byte-identical to the sequential run — stream results (queue/window
// peaks, sojourn percentiles), merged metric snapshots, emitted events,
// and (where collected) decision logs. RunStream never takes wall-clock
// snapshots, so the full metric snapshot is comparable bytewise. The
// retirement path runs too (CollectDecisions off): window shifts must be
// invisible to the parallel phase split.
func TestParallelStreamMatchesSequential(t *testing.T) {
	g, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{K: 2, NumObjects: 8, Rate: 0.75, Burst: 6, Seed: 13}
	sources := map[string]func() (Source, error){
		"poisson": func() (Source, error) { return NewPoissonSource(g, cfg) },
		"bursty":  func() (Source, error) { return NewBurstySource(g, cfg) },
	}
	// Every engine that declares Stream runs under the streaming
	// driver here, so a new stream-capable engine joins the parallel
	// identity check with no edit.
	scheds := map[string]func() Scheduler{}
	for _, d := range Engines() {
		if d.Stream {
			scheds[d.ID] = d.New
		}
	}
	if len(scheds) < 7 {
		t.Fatalf("registry lists only %d stream-capable engines, want the seven central variants", len(scheds))
	}
	type streamPin struct {
		result, metrics, events, decisions []byte
	}
	run := func(t *testing.T, mkSrc func() (Source, error), mkSched func() Scheduler,
		parallel int, collect bool) streamPin {
		t.Helper()
		src, err := mkSrc()
		if err != nil {
			t.Fatal(err)
		}
		m := NewMetrics()
		sink := &obs.SliceSink{}
		m.SetSink(sink)
		rr, err := RunStream(g, UniformObjects(g, 8, 13), src, mkSched(), StreamOptions{
			Obs:              m,
			Sim:              SimOptions{Parallel: parallel},
			MaxArrivals:      1500,
			CollectDecisions: collect,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		var p streamPin
		mustJSON := func(dst *[]byte, v any) {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			*dst = b
		}
		cp := *rr
		cp.Metrics = nil // compared separately via WriteJSON
		mustJSON(&p.result, cp)
		mustJSON(&p.events, sink.Events())
		mustJSON(&p.decisions, rr.Decisions)
		var buf bytes.Buffer
		if err := rr.Metrics.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		p.metrics = buf.Bytes()
		return p
	}
	for srcName, mkSrc := range sources {
		for schedName, mkSched := range scheds {
			// CollectDecisions only on one cell: elsewhere retirement runs.
			collect := srcName == "poisson" && schedName == "greedy"
			t.Run(fmt.Sprintf("%s/%s", srcName, schedName), func(t *testing.T) {
				seq := run(t, mkSrc, mkSched, 0, collect)
				// Sanity: the no-history cells must actually retire, or the
				// window-shift path goes untested here.
				if !collect && bytes.Contains(seq.result, []byte(`"Retired":0`)) {
					t.Fatalf("retirement never fired; raise MaxArrivals (result: %s)", seq.result)
				}
				for _, parallel := range []int{2, 4} {
					par := run(t, mkSrc, mkSched, parallel, collect)
					if !bytes.Equal(seq.result, par.result) {
						t.Fatalf("P=%d: stream results differ\nsequential: %s\nparallel:   %s", parallel, seq.result, par.result)
					}
					if !bytes.Equal(seq.metrics, par.metrics) {
						t.Fatalf("P=%d: metric snapshots differ\nsequential: %s\nparallel:   %s", parallel, seq.metrics, par.metrics)
					}
					if !bytes.Equal(seq.events, par.events) {
						t.Fatalf("P=%d: event streams differ (lengths %d vs %d)", parallel, len(seq.events), len(par.events))
					}
					if !bytes.Equal(seq.decisions, par.decisions) {
						t.Fatalf("P=%d: decision logs differ", parallel)
					}
				}
			})
		}
	}
}

// TestParallelReplayMatchesSequential pins the raw engine without a
// scheduler in the loop: replaying one decision log with Parallel set
// must land on the same Result.
func TestParallelReplayMatchesSequential(t *testing.T) {
	for topoName, g := range diffTopologies(t) {
		t.Run(topoName, func(t *testing.T) {
			in, err := Generate(g, WorkloadConfig{
				K: 2, NumObjects: 6, Rounds: 4,
				Arrival: ArrivalPoisson, Period: 2, Seed: 9,
			})
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Run(in, NewGreedy(GreedyOptions{}), RunOptions{SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			base, err := Replay(in, rr.Decisions, SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			bj, err := json.Marshal(base)
			if err != nil {
				t.Fatal(err)
			}
			for _, parallel := range []int{2, 4, -1} {
				res, err := Replay(in, rr.Decisions, SimOptions{Parallel: parallel})
				if err != nil {
					t.Fatalf("parallel=%d: %v", parallel, err)
				}
				rj, err := json.Marshal(res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(bj, rj) {
					t.Fatalf("parallel=%d replay differs\nsequential: %s\nparallel:   %s", parallel, bj, rj)
				}
			}
		})
	}
}

// TestAdvanceToIncrementsMatchRunToCompletion is the property test: a
// sim advanced in arbitrary fuzzed increments must land on the same
// final Result as one advanced event-by-event (RunToCompletion inside
// Replay), sequential and parallel alike. Partial advances slice event
// batches differently — the property pins that slicing is invisible.
func TestAdvanceToIncrementsMatchRunToCompletion(t *testing.T) {
	g, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 6, Rounds: 4,
		Arrival: ArrivalPoisson, Period: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(in, NewGreedy(GreedyOptions{}), RunOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Replay(in, rr.Decisions, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseJSON, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{0, 4} {
		for trial := 0; trial < 8; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)*97 + int64(parallel) + 1))
			s, err := core.NewSim(in, core.SimOptions{Parallel: parallel}, nil)
			if err != nil {
				t.Fatal(err)
			}
			decs := rr.Decisions
			for i := 0; i < len(decs); {
				at := decs[i].At
				for s.Now() < at {
					next := s.Now() + core.Time(1+rng.Intn(4))
					if next > at {
						next = at
					}
					if err := s.AdvanceTo(next); err != nil {
						t.Fatalf("parallel=%d trial=%d: %v", parallel, trial, err)
					}
				}
				for i < len(decs) && decs[i].At == at {
					if err := s.Decide(decs[i].Tx, decs[i].Exec); err != nil {
						t.Fatalf("parallel=%d trial=%d: %v", parallel, trial, err)
					}
					i++
				}
			}
			for guard := 0; !s.AllExecuted(); guard++ {
				if guard > 1<<20 {
					t.Fatalf("parallel=%d trial=%d: run did not finish", parallel, trial)
				}
				if err := s.AdvanceTo(s.Now() + core.Time(1+rng.Intn(5))); err != nil {
					t.Fatalf("parallel=%d trial=%d: %v", parallel, trial, err)
				}
			}
			got, err := json.Marshal(s.Result())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(baseJSON, got) {
				t.Fatalf("parallel=%d trial=%d: fuzzed advancement diverged\nwant: %s\ngot:  %s",
					parallel, trial, baseJSON, got)
			}
		}
	}
}
