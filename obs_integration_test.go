package dtm

// End-to-end observability tests: a golden run pinning exact counter values
// on a deterministic workload, cross-checks between the metrics and the
// result fields of a distributed run, and the Failed/Err contract.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"dtm/internal/obs"
)

func goldenInstance(t *testing.T) *Instance {
	t.Helper()
	g, err := Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 4, Rounds: 2,
		Arrival: ArrivalPeriodic, Period: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// goldenGreedyCounters pins the exact counter values of the golden clique
// workload under the greedy scheduler. TestGoldenNamesRegistered walks the
// same map to prove every pinned name is in the obs registry.
var goldenGreedyCounters = map[string]int64{
	"core.commits":           16,
	"core.decisions":         16,
	"core.elastic_waits":     0,
	"core.link_queued":       0,
	"core.object_moves":      31,
	"core.travel_weight":     31,
	"core.txns_added":        0,
	"core.violations":        0,
	"depgraph.edges_reused":  111,
	"greedy.colors_assigned": 16,
	"greedy.within_bound":    16,
	"sched.arrivals":         16,
	"sched.snapshots":        2,
	"sched.wakeups":          0,
}

// goldenPinnedInstruments lists the gauge and histogram names the golden
// and cross-check tests assert on by literal name.
var goldenPinnedInstruments = []string{
	"core.live_txns",
	"depgraph.live_vertices",
	"depgraph.arena_bytes",
	"core.commit_latency",
	"core.leg_weight",
	"distnet.messages",
	"distnet.msg_distance",
	"distbucket.insertions",
	"distbucket.activations",
	"distnet.injects",
	"distbucket.discoveries",
	"distbucket.reports",
	"distbucket.reserves",
	"distbucket.grants",
	"distbucket.releases",
	"distbucket.cover_layer",
}

func TestMetricsGoldenCliqueGreedy(t *testing.T) {
	in := goldenInstance(t)
	m := NewMetrics()
	rr, err := Run(in, NewGreedy(GreedyOptions{}), RunOptions{Obs: m})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Metrics == nil {
		t.Fatal("RunResult.Metrics not populated")
	}
	want := goldenGreedyCounters
	snap := rr.Metrics
	for name, v := range want {
		if got, ok := snap.Counters[name]; !ok || got != v {
			t.Errorf("counter %s = %d (present %v), want %d", name, got, ok, v)
		}
	}
	for name := range snap.Counters {
		if _, ok := want[name]; !ok {
			t.Errorf("unexpected counter %s = %d", name, snap.Counters[name])
		}
	}
	if g := snap.Gauges["core.live_txns"]; g.Value != 0 || g.Max != 10 {
		t.Errorf("core.live_txns = %+v, want value 0 max 10", g)
	}
	if g, ok := snap.Gauges["depgraph.live_vertices"]; !ok || g.Max < 1 {
		t.Errorf("depgraph.live_vertices = %+v (present %v), want max >= 1", g, ok)
	}
	if g, ok := snap.Gauges["depgraph.arena_bytes"]; !ok || g.Max < 1 {
		t.Errorf("depgraph.arena_bytes = %+v (present %v), want max >= 1", g, ok)
	}
	h, ok := snap.Histograms["core.commit_latency"]
	if !ok {
		t.Fatal("core.commit_latency histogram missing")
	}
	if h.Count != 16 || h.Sum != 58 || h.Min != 1 || h.Max != 7 {
		t.Errorf("core.commit_latency = count %d sum %d min %d max %d, want 16/58/1/7",
			h.Count, h.Sum, h.Min, h.Max)
	}
	// On a unit clique every leg is one hop.
	leg, ok := snap.Histograms["core.leg_weight"]
	if !ok || leg.Count != 31 {
		t.Errorf("core.leg_weight count = %d (present %v), want 31", leg.Count, ok)
	}
}

// TestMetricsGoldenLineGreedyLegs pins the motion metrics where legs
// cross several hops: greedy on Line(16). Objects travel 168 edges, as
// they did hop by hop, in 54 legs; one leg is cut, at t=11, when a new
// user turns object 2 at node 9, the end of the hop it is on.
func TestMetricsGoldenLineGreedyLegs(t *testing.T) {
	g, err := Line(16)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 4, Rounds: 2,
		Arrival: ArrivalPoisson, Period: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	sink := &obs.SliceSink{}
	m.SetSink(sink)
	rr, err := Run(in, NewGreedy(GreedyOptions{}), RunOptions{Obs: m})
	if err != nil {
		t.Fatal(err)
	}
	c := rr.Metrics.Counters
	if c["core.object_moves"] != 54 || c["core.travel_weight"] != 168 || rr.TotalComm != 168 {
		t.Errorf("core.object_moves %d, core.travel_weight %d, TotalComm %d; want 54 legs of weight 168",
			c["core.object_moves"], c["core.travel_weight"], rr.TotalComm)
	}
	if h := rr.Metrics.Histograms["core.leg_weight"]; h.Count != 54 || h.Sum != 168 {
		t.Errorf("core.leg_weight count %d sum %d, want 54 and 168", h.Count, h.Sum)
	}
	var moves, cuts []obs.Event
	for _, e := range sink.Events() {
		switch e.Kind {
		case "move":
			moves = append(moves, e)
		case "cut":
			cuts = append(cuts, e)
		}
	}
	if len(moves) != 54 {
		t.Errorf("%d move events, want one per leg, 54", len(moves))
	}
	want := obs.Event{At: 11, Kind: "cut", Obj: 2, Node: 9, Value: 12}
	if len(cuts) != 1 || cuts[0] != want {
		t.Errorf("cut events %+v, want [%+v]", cuts, want)
	}
}

// TestJSONLEventsKeepZeros writes the golden clique run's events through
// NewJSONLSink: every line carries its Kind's fields and no others, with
// transaction 0 and object 0 spelled out, and decodes to the event a
// SliceSink receives from the same run.
func TestJSONLEventsKeepZeros(t *testing.T) {
	var b bytes.Buffer
	sink := &obs.SliceSink{}
	for _, s := range []Sink{NewJSONLSink(&b), sink} {
		m := NewMetrics()
		m.SetSink(s)
		if _, err := Run(goldenInstance(t), NewGreedy(GreedyOptions{}), RunOptions{Obs: m}); err != nil {
			t.Fatal(err)
		}
	}
	txFields, objFields := []string{"at", "kind", "node", "tx", "value"}, []string{"at", "kind", "node", "obj", "value"}
	want := map[string][]string{"decide": txFields, "commit": txFields, "move": objFields, "cut": objFields}
	events := sink.Events()
	zeros := map[string]int{}
	sc := bufio.NewScanner(&b)
	for i := 0; sc.Scan(); i++ {
		var fields map[string]json.RawMessage
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &fields); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(fields))
		for k, v := range fields {
			keys = append(keys, k)
			if string(v) == "0" && (k == "tx" || k == "obj") {
				zeros[e.Kind+" "+k]++
			}
		}
		slices.Sort(keys)
		if !slices.Equal(keys, want[e.Kind]) {
			t.Errorf("line %d %s: fields %v, want %v", i, sc.Bytes(), keys, want[e.Kind])
		}
		if i >= len(events) || e != events[i] {
			t.Fatalf("line %d %s does not decode to the sliced event", i, sc.Bytes())
		}
	}
	for _, k := range []string{"decide tx", "commit tx", "move obj"} {
		if zeros[k] == 0 {
			t.Errorf("no %s event for ID 0 (%v)", k, zeros)
		}
	}
}

func TestMetricsDistributedCrossChecks(t *testing.T) {
	g, err := Line(8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 4, Rounds: 2,
		Arrival: ArrivalPeriodic, Period: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	proto := NewDistributed(DistributedOptions{Batch: TourBatch(), Seed: 3})
	rr, err := Run(in, proto, RunOptions{Obs: m})
	if err != nil {
		t.Fatal(err)
	}
	c := rr.Metrics.Counters
	// Every transaction arrives once, is injected once, discovered once,
	// reported once, inserted once, and committed once.
	n := int64(len(in.Txns))
	for _, name := range []string{"sched.arrivals", "distnet.injects", "distbucket.discoveries", "distbucket.reports",
		"distbucket.insertions", "core.commits", "core.decisions"} {
		if c[name] != n {
			t.Errorf("%s = %d, want %d", name, c[name], n)
		}
	}
	// Each report chose one cover layer, and no layer past the cover's.
	layers := rr.Metrics.Histograms["distbucket.cover_layer"]
	if layers.Count != n || layers.Max >= int64(proto.Report().CoverLayers) {
		t.Errorf("distbucket.cover_layer = %+v, want %d reports below layer %d", layers, n, proto.Report().CoverLayers)
	}
	// Home reservations are granted and released exactly once each.
	if c["distbucket.reserves"] != c["distbucket.grants"] || c["distbucket.grants"] != c["distbucket.releases"] {
		t.Errorf("reserve/grant/release mismatch: %d/%d/%d",
			c["distbucket.reserves"], c["distbucket.grants"], c["distbucket.releases"])
	}
	// Per-type message counters partition the total.
	var typed int64
	for name, v := range c {
		if len(name) > len("distnet.msg.") && name[:len("distnet.msg.")] == "distnet.msg." {
			typed += v
		}
	}
	if typed != c["distnet.messages"] {
		t.Errorf("per-type message counters sum to %d, total is %d", typed, c["distnet.messages"])
	}
}

func TestFailedRunReturnsMarkedResult(t *testing.T) {
	in := goldenInstance(t)
	s := &failOnArrive{}
	rr, err := Run(in, s, RunOptions{})
	if err == nil {
		t.Fatal("expected error from failing scheduler")
	}
	if rr == nil {
		t.Fatal("failed run returned nil result")
	}
	if !rr.Failed || rr.Err == nil {
		t.Errorf("Failed=%v Err=%v, want marked failure", rr.Failed, rr.Err)
	}
}

// failOnArrive implements Scheduler and errors on the first arrival.
type failOnArrive struct{}

func (*failOnArrive) Name() string { return "fail-on-arrive" }
func (*failOnArrive) Start(env *SchedulerEnv) error {
	return nil
}
func (*failOnArrive) OnArrive([]*Transaction) error { return fmt.Errorf("refusing work") }
func (*failOnArrive) NextWake() (Time, bool)        { return 0, false }
func (*failOnArrive) OnWake() error                 { return nil }
