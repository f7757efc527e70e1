package dtm

// Generic engine-conformance suite, driven by the engine registry: every
// registered engine, the Algorithm 3 protocol included, must satisfy the
// contracts the drivers rely on, with no per-engine test code. Adding a
// Desc to internal/engine automatically subjects the new engine to:
//
//   - determinism: two fresh-engine runs over the same instance are
//     byte-identical (decisions, results, metric snapshots, events);
//   - parallel identity: SimOptions.Parallel ∈ {2, 4} reproduces the
//     sequential run bytewise (DESIGN.md §12 tree warm-up);
//   - replay round-trip: the decision log re-executes under the
//     execution model, at the object speed the run used, with the same
//     makespan — i.e. the schedule is valid, not just internally
//     consistent;
//   - the same three on a one-node graph (diameter 0) with two
//     co-located transactions on one object;
//   - stream leak guard (Stream engines only): under the open-system
//     driver with retirement enabled, live state plateaus instead of
//     growing with the arrival count.
//
// engine_par_test.go and engine_diff_test.go stress the same contracts
// across many topologies/seeds/feature knobs; this suite is the cheap
// per-engine gate a new registry entry must clear first.

import (
	"os"
	"strings"
	"testing"

	"dtm/internal/obs"
)

func conformInstance(t *testing.T) *Instance {
	t.Helper()
	g, err := Cluster(ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 3, NumObjects: 6, Rounds: 4,
		Arrival: ArrivalPoisson, Period: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// oneNodeInstance is the degenerate instance: a one-node graph, whose
// diameter is 0, with one object and two transactions that all sit on the
// node and conflict on the object, both arriving at t=0.
func oneNodeInstance(t *testing.T) *Instance {
	t.Helper()
	g, err := Line(1)
	if err != nil {
		t.Fatal(err)
	}
	return &Instance{
		G:       g,
		Objects: []*Object{{ID: 0, Origin: 0}},
		Txns: []*Transaction{
			{ID: 0, Node: 0, Objects: []ObjID{0}},
			{ID: 1, Node: 0, Objects: []ObjID{0}},
		},
	}
}

func TestEngineConformance(t *testing.T) {
	in := conformInstance(t)
	one := oneNodeInstance(t)
	ran := 0
	for _, d := range Engines() {
		ran++
		t.Run(d.ID, func(t *testing.T) {
			testEngineRuns(t, in, d)
			t.Run("one-node", func(t *testing.T) {
				testEngineRuns(t, one, d)
			})
			if d.Stream {
				t.Run("stream-leak-guard", func(t *testing.T) {
					testEngineStreamLeakGuard(t, d)
				})
			}
		})
	}
	if ran < 8 {
		t.Fatalf("conformance covered only %d engines, want the eight variants", ran)
	}
}

// testEngineRuns checks determinism, parallel identity and the replay
// round-trip of d's runs over in.
func testEngineRuns(t *testing.T, in *Instance, d EngineDesc) {
	t.Run("deterministic", func(t *testing.T) {
		a := runPinned(t, in, d.New(), RunOptions{}, 0)
		b := runPinned(t, in, d.New(), RunOptions{}, 0)
		comparePinned(t, a, b, 0)
	})
	t.Run("parallel-identity", func(t *testing.T) {
		seq := runPinned(t, in, d.New(), RunOptions{}, 0)
		for _, p := range []int{2, 4} {
			comparePinned(t, seq, runPinned(t, in, d.New(), RunOptions{}, p), p)
		}
	})
	t.Run("replay-roundtrip", func(t *testing.T) {
		rr, err := Run(in, d.New(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Replay(in, rr.Decisions, SimOptions{SlowFactor: rr.SlowFactor})
		if err != nil {
			t.Fatalf("decision log does not replay: %v", err)
		}
		if res.Makespan != rr.Makespan {
			t.Fatalf("replay makespan %d != run makespan %d", res.Makespan, rr.Makespan)
		}
	})
}

// testEngineStreamLeakGuard sustains a sub-critical Poisson load through
// the open-system driver (CollectDecisions off, so retirement runs) and
// asserts the engine's live state plateaus: a leaked posting list or
// pending set grows linearly with arrivals, so a doubling bound on the
// second-half peaks separates cleanly.
func testEngineStreamLeakGuard(t *testing.T, d EngineDesc) {
	g, err := Clique(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := StreamConfig{K: 2, NumObjects: 16, Rate: 0.25, Seed: 17}
	src, err := NewPoissonSource(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const arrivals = 2000
	res, err := RunStream(g, UniformObjects(g, 16, 17), src, d.New(),
		StreamOptions{Obs: NewMetrics(), MaxArrivals: arrivals})
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
	live := res.Metrics.Gauges[obs.NameStreamLiveState.String()].Value
	if live > arrivals/4 {
		t.Fatalf("final live state %d is not bounded (of %d arrivals)", live, arrivals)
	}
}

// TestReadmeListsAllEngines keeps the README's engine table honest: every
// registry ID (including the distributed protocol) must have a row in it,
// and the row's Capabilities cell must say oracle exactly when the engine
// keeps a rebuild oracle and stream exactly when it runs under RunStream,
// so the table cannot silently lag the registry.
func TestReadmeListsAllEngines(t *testing.T) {
	b, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, line := range strings.Split(string(b), "\n") {
		if cells := strings.Split(line, "|"); len(cells) > 4 && strings.HasPrefix(line, "| `") {
			rows[strings.Trim(strings.TrimSpace(cells[1]), "`")] = cells
		}
	}
	for _, d := range Engines() {
		cells, ok := rows[d.ID]
		if !ok {
			t.Errorf("README.md has no engine table row for `%s`; regenerate the table from the registry", d.ID)
			continue
		}
		var caps []string
		if d.Oracle != nil {
			caps = append(caps, "oracle")
		}
		if d.Stream {
			caps = append(caps, "stream")
		}
		want := strings.Join(caps, ", ")
		if want == "" {
			want = "—"
		}
		if got := strings.TrimSpace(cells[3]); got != want {
			t.Errorf("README.md lists `%s` with capabilities %q, want %q", d.ID, got, want)
		}
	}
}
