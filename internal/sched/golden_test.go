package sched_test

// Driver goldens: a digest of every driver's output on fixed grids,
// pinned in driverGoldens. The identity suites compare two paths through
// the same driver (incremental vs oracle, P=1 vs P=2); none of them
// notices the driver itself drifting.
// These do: any change to decisions, results, ratios, abandoned
// transactions, stream aggregates, the deterministic metric snapshot or
// the emitted event stream changes a digest. Each case pins two halves:
// the schedule half holds everything but the Sim's motion observables,
// and the obs half holds those (the event stream, the move counter and
// the move-weight histogram), so a change to how the Sim reports motion
// shows apart from a change to what it schedules. A mismatch prints the
// whole new table; paste it only for an intended behaviour change.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sort"
	"strings"
	"testing"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/distbucket"
	"dtm/internal/distnet"
	"dtm/internal/engine"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// hashSink folds the emitted event stream into a hash.
type hashSink struct{ h hash.Hash }

func (s hashSink) Event(e obs.Event) {
	b, _ := json.Marshal(e)
	s.h.Write(b)
}

// recorder is one run's observability registry with its event hash.
type recorder struct {
	m      *obs.Metrics
	events hash.Hash
}

func newRecorder() recorder {
	r := recorder{m: obs.New(), events: sha256.New()}
	r.m.SetSink(hashSink{r.events})
	return r
}

// motionNames are the instruments of a golden's obs half.
var motionNames = []obs.Name{obs.NameCoreObjectMoves, obs.NameCoreLegWeight}

// metrics returns the deterministic part of a snapshot for the schedule
// half: drop names the instruments left out, besides the wall-clock
// sched.snapshot_ns and the obs half's motionNames.
func (r recorder) metrics(s *obs.Snapshot, drop ...obs.Name) *obs.Snapshot {
	out := &obs.Snapshot{Counters: map[string]int64{}, Gauges: map[string]obs.GaugeValue{},
		Histograms: map[string]obs.HistogramValue{}}
	for k, v := range s.Counters {
		out.Counters[k] = v
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	for _, name := range append(append(drop, obs.NameSchedSnapshotNs), motionNames...) {
		delete(out.Counters, name.String())
		delete(out.Gauges, name.String())
		delete(out.Histograms, name.String())
	}
	return out
}

// motion returns the obs half of a run: the event stream's hash and the
// motionNames instruments of its final snapshot.
func (r recorder) motion(s *obs.Snapshot) []any {
	parts := []any{hex.EncodeToString(r.events.Sum(nil))}
	for _, name := range motionNames {
		if v, ok := s.Counters[name.String()]; ok {
			parts = append(parts, name.String(), v)
		}
		if v, ok := s.Histograms[name.String()]; ok {
			parts = append(parts, name.String(), v)
		}
	}
	return parts
}

func digest(t *testing.T, parts ...any) string {
	t.Helper()
	h := sha256.New()
	for _, p := range parts {
		b, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// golden is one case's pair of digests: the schedule half and the obs
// half (see the file comment).
type golden struct{ sched, obs string }

// goldenTable collects digests; the variants of one case (P=1 and P=2)
// must agree with each other and share one entry.
type goldenTable map[string]golden

func (g goldenTable) put(t *testing.T, name string, schedParts, obsParts []any) {
	t.Helper()
	d := golden{digest(t, schedParts...), digest(t, obsParts...)}
	if prev, ok := g[name]; ok && prev != d {
		t.Errorf("%s: variant digests %v differ from %v", name, d, prev)
		return
	}
	g[name] = d
}

type goldenEngine struct {
	name string
	mk   func() sched.Scheduler
	sim  core.SimOptions
}

// runEngines are every registry engine, plus the feature-knob extras of
// the root engine_diff suite.
func runEngines() []goldenEngine {
	var es []goldenEngine
	for _, d := range engine.All() {
		d := d
		es = append(es, goldenEngine{d.ID, func() sched.Scheduler { return d.New(sched.EngineOptions{}) }, core.SimOptions{}})
	}
	slow := core.SimOptions{SlowFactor: 2}
	return append(es,
		goldenEngine{"greedy-pad2", func() sched.Scheduler { return greedy.New(greedy.Options{Pad: 2}) }, core.SimOptions{}},
		goldenEngine{"greedy-slow", func() sched.Scheduler { return greedy.New(greedy.Options{}) }, slow},
		goldenEngine{"greedy-linkcap", func() sched.Scheduler { return greedy.New(greedy.Options{}) }, core.SimOptions{LinkCapacity: 1}},
		goldenEngine{"bucket-random-suffix", func() sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.WithSuffixProperty(batch.Randomized{Seed: 42, Tries: 3})})
		}, core.SimOptions{}},
		goldenEngine{"bucket-tour-slow", func() sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.Tour{}})
		}, slow},
	)
}

func goldenInstance(t *testing.T, g *graph.Graph, rounds int, seed int64) *core.Instance {
	t.Helper()
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 6, Rounds: rounds,
		Arrival: workload.ArrivalPoisson, Period: 3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// goldenRun covers sched.Run at P=1 and P=2. The seed doubles as the
// snapshot stride, so every-k-th sampling is pinned too.
func goldenRun(t *testing.T, got goldenTable) {
	for topo, g := range diffTopologies(t) {
		for _, e := range runEngines() {
			for seed := int64(1); seed <= 3; seed++ {
				in := goldenInstance(t, g, 3, seed)
				for _, p := range []int{1, 2} {
					name := fmt.Sprintf("run/%s/%s/seed%d", topo, e.name, seed)
					rec := newRecorder()
					simOpts := e.sim
					simOpts.Parallel = p
					rr, err := sched.Run(in, e.mk(), sched.Options{Sim: simOpts, SnapshotEvery: int(seed), Obs: rec.m})
					if err != nil {
						t.Fatalf("%s P=%d: %v", name, p, err)
					}
					if queued, waits := rr.Metrics.Counters[obs.NameCoreLinkQueued.String()],
						rr.Metrics.Counters[obs.NameCoreElasticWaits.String()]; e.sim.LinkCapacity > 0 && (queued == 0 || waits == 0) {
						t.Fatalf("%s P=%d: %d link waits and %d elastic waits; a bounded-link case must exercise both",
							name, p, queued, waits)
					}
					got.put(t, name, []any{rr.Scheduler, rr.Decisions, rr.Result, rr.Ratios, rr.MaxRatio,
						rr.Abandoned, rr.Failed, rec.metrics(rr.Metrics)}, rec.motion(rr.Metrics))
				}
			}
		}
	}
}

// goldenClosedLoop covers RunClosedLoop over the closed-loop grid: with
// snapshots off every field including metrics, events and the generated
// instance; with snapshots on the ratio trace too.
func goldenClosedLoop(t *testing.T, got goldenTable) {
	scheds := map[string]func() sched.Scheduler{
		"greedy": func() sched.Scheduler { return greedy.New(greedy.Options{}) },
		"greedy-rebuild": func() sched.Scheduler {
			return greedy.New(greedy.Options{EngineOptions: sched.EngineOptions{RebuildOracle: true}})
		},
		"bucket-tour": func() sched.Scheduler { return bucket.New(bucket.Options{Batch: batch.Tour{}}) },
		"bucket-tour-rebuild": func() sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.Tour{},
				EngineOptions: sched.EngineOptions{RebuildOracle: true}})
		},
		"bucket-coloring": func() sched.Scheduler { return bucket.New(bucket.Options{Batch: batch.Coloring{}}) },
		"coordinator":     func() sched.Scheduler { return greedy.NewCoordinator(0, greedy.Options{}) },
	}
	for topo, g := range diffTopologies(t) {
		for sn, mk := range scheds {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("closed-loop/%s/%s/seed%d", topo, sn, seed)
				var schedParts, obsParts []any
				for _, snapEvery := range []int{-1, 1} {
					rec := newRecorder()
					rr, in, err := sched.RunClosedLoop(g, clConfig(g, seed), mk(), sched.Options{SnapshotEvery: snapEvery, Obs: rec.m})
					if err != nil {
						t.Fatalf("%s snapshots=%d: %v", name, snapEvery, err)
					}
					schedParts = append(schedParts, rr.Scheduler, rr.Decisions, rr.Result, rr.Ratios, rr.MaxRatio,
						rr.Abandoned, rr.Failed, in.Txns, rec.metrics(rr.Metrics))
					obsParts = append(obsParts, rec.motion(rr.Metrics)...)
				}
				got.put(t, name, schedParts, obsParts)
			}
		}
	}
}

// goldenStream covers RunStream over every streaming engine on a Poisson
// and a bursty source, with window retirement on.
func goldenStream(t *testing.T, got goldenTable) {
	topos := diffTopologies(t)
	for _, topo := range []string{"grid", "cluster"} {
		g := topos[topo]
		cfg := workload.StreamConfig{K: 2, NumObjects: 12, Rate: 0.2, Burst: 6, Seed: 7}
		sources := map[string]func() (workload.Source, error){
			"poisson": func() (workload.Source, error) { return workload.NewPoissonSource(g, cfg) },
			"bursty":  func() (workload.Source, error) { return workload.NewBurstySource(g, cfg) },
		}
		for _, d := range engine.All() {
			if !d.Caps.Stream {
				continue
			}
			for sn, mkSrc := range sources {
				name := fmt.Sprintf("stream/%s/%s/%s", topo, d.ID, sn)
				src, err := mkSrc()
				if err != nil {
					t.Fatal(err)
				}
				rec := newRecorder()
				res, err := sched.RunStream(g, workload.UniformObjects(g, cfg.NumObjects, cfg.Seed), src,
					d.New(sched.EngineOptions{}), sched.StreamOptions{Obs: rec.m, MaxArrivals: 1500})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Retired == 0 {
					t.Fatalf("%s: retirement never fired", name)
				}
				fields := *res
				fields.Metrics = nil
				got.put(t, name, []any{fields, rec.metrics(res.Metrics)}, rec.motion(res.Metrics))
			}
		}
	}
}

// goldenDistributed covers the Algorithm 3 protocol and its Report
// without faults, under a lossy network, under heavy loss and with crashed
// origins, at P=1 and P=2 (lazy trees and the sim's tree warm-up). The
// driver instruments the central engines emit are left out of its metrics.
func goldenDistributed(t *testing.T, got goldenTable) {
	plans := map[string]distbucket.FaultOptions{
		"none":  {},
		"lossy": {Plan: distnet.FaultPlan{Seed: 11, Drop: 0.05, Duplicate: 0.03, MaxJitter: 2}},
		// Few attempts under heavy loss: the protocol itself gives up.
		"drop40": {Plan: distnet.FaultPlan{Seed: 5, Drop: 0.4}, MaxAttempts: 6},
		"crashed": {Plan: distnet.FaultPlan{Crashes: []distnet.CrashWindow{
			{Node: 1, From: 0, To: 1 << 30},
			{Node: 4, From: 3, To: 40},
		}}},
	}
	for topo, g := range diffTopologies(t) {
		for pn, plan := range plans {
			for seed := int64(1); seed <= 3; seed++ {
				in := goldenInstance(t, g, 2, seed)
				for _, p := range []int{1, 2} {
					name := fmt.Sprintf("distributed/%s/%s/seed%d", topo, pn, seed)
					rec := newRecorder()
					proto := distbucket.New(distbucket.Options{Seed: seed, Faults: plan})
					rr, err := sched.Run(in, proto, sched.Options{Sim: core.SimOptions{Parallel: p}, SnapshotEvery: 1, Obs: rec.m})
					if err != nil {
						t.Fatalf("%s P=%d: %v", name, p, err)
					}
					res := proto.Report()
					got.put(t, name, []any{rr.Scheduler, rr.Decisions, rr.Result, rr.Ratios, rr.MaxRatio,
						rr.Abandoned, rr.Failed, res.Abandoned, res.Audit, res.Messages, res.MsgDistance,
						res.CoverLayers, res.SubLayers, res.Lemma6Pairs, res.Lemma6Violations,
						rec.metrics(rr.Metrics, obs.NameSchedWakeups, obs.NameSchedSnapshotLive, obs.NameSchedLiveTxns)},
						rec.motion(rr.Metrics))
				}
			}
		}
	}
}

func TestDriverGoldens(t *testing.T) {
	got := goldenTable{}
	goldenRun(t, got)
	goldenClosedLoop(t, got)
	goldenStream(t, got)
	goldenDistributed(t, got)
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	for name := range driverGoldens {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	mismatch := false
	for _, name := range names {
		want, have := driverGoldens[name], got[name]
		if want.sched != have.sched {
			t.Errorf("%s: schedule digest %q, golden %q", name, have.sched, want.sched)
			mismatch = true
		}
		if want.obs != have.obs {
			t.Errorf("%s: obs digest %q, golden %q", name, have.obs, want.obs)
			mismatch = true
		}
	}
	if mismatch {
		var b strings.Builder
		for _, name := range names {
			if d, ok := got[name]; ok {
				fmt.Fprintf(&b, "\t%q: {%q, %q},\n", name, d.sched, d.obs)
			}
		}
		t.Errorf("new table:\nvar driverGoldens = map[string]golden{\n%s}", b.String())
	}
}

// driverGoldens holds one digest pair per case, keyed
// driver/topology/engine/variant.
var driverGoldens = map[string]golden{
	"closed-loop/clique/bucket-coloring/seed1":      {"dcff57e02d563ddf", "9bdead0457809dc0"},
	"closed-loop/clique/bucket-coloring/seed2":      {"254d7fca58df385b", "7652f509f8b835d6"},
	"closed-loop/clique/bucket-coloring/seed3":      {"8e19928292618911", "88911621c446645e"},
	"closed-loop/clique/bucket-tour-rebuild/seed1":  {"de2eb891d5f1d227", "d342c9e5aaf15a33"},
	"closed-loop/clique/bucket-tour-rebuild/seed2":  {"9d4d251e12f81ece", "036d0821d68d30d7"},
	"closed-loop/clique/bucket-tour-rebuild/seed3":  {"b8b9ea7bf7c08a77", "70edb94442dee7df"},
	"closed-loop/clique/bucket-tour/seed1":          {"579f842ac553f2b6", "d342c9e5aaf15a33"},
	"closed-loop/clique/bucket-tour/seed2":          {"cf4aaaf464667669", "036d0821d68d30d7"},
	"closed-loop/clique/bucket-tour/seed3":          {"9ab8ac3e45aeefc5", "70edb94442dee7df"},
	"closed-loop/clique/coordinator/seed1":          {"a2d2fc90ee6f4f1a", "2049ee74e451a812"},
	"closed-loop/clique/coordinator/seed2":          {"280345bce706ace8", "b537e8210877744b"},
	"closed-loop/clique/coordinator/seed3":          {"37395be59288af32", "61c9297cf3e59979"},
	"closed-loop/clique/greedy-rebuild/seed1":       {"a959fadc36966df1", "21fbc3e2b950a258"},
	"closed-loop/clique/greedy-rebuild/seed2":       {"bbcd67aa851ed98d", "8e839227efbd9e81"},
	"closed-loop/clique/greedy-rebuild/seed3":       {"42ef1c1f68acf8e8", "24a0e8af0f16eb5e"},
	"closed-loop/clique/greedy/seed1":               {"5dc7f7e196d0ba2a", "21fbc3e2b950a258"},
	"closed-loop/clique/greedy/seed2":               {"40fec0fe558fbc10", "8e839227efbd9e81"},
	"closed-loop/clique/greedy/seed3":               {"79e550d6f6ef04ad", "24a0e8af0f16eb5e"},
	"closed-loop/cluster/bucket-coloring/seed1":     {"bb12af85192fc673", "a508d143b404137d"},
	"closed-loop/cluster/bucket-coloring/seed2":     {"dd7a89d42e18a2f3", "54ece0f46d59ddf9"},
	"closed-loop/cluster/bucket-coloring/seed3":     {"62ebc024af998ac0", "b289e26027ee8d64"},
	"closed-loop/cluster/bucket-tour-rebuild/seed1": {"fe47be209c0f3e42", "04a133a56159bd02"},
	"closed-loop/cluster/bucket-tour-rebuild/seed2": {"acc9ee676de9b53a", "82485bd885280690"},
	"closed-loop/cluster/bucket-tour-rebuild/seed3": {"a6cb665c752a7b4f", "b842c49b00f144f3"},
	"closed-loop/cluster/bucket-tour/seed1":         {"039e1045d6c2b91d", "04a133a56159bd02"},
	"closed-loop/cluster/bucket-tour/seed2":         {"c22ab0e76d135320", "82485bd885280690"},
	"closed-loop/cluster/bucket-tour/seed3":         {"3cb4d63f1b51a0d9", "b842c49b00f144f3"},
	"closed-loop/cluster/coordinator/seed1":         {"a7b2b2412dbedff7", "6f9e72a9ea1b6ad0"},
	"closed-loop/cluster/coordinator/seed2":         {"56ad3877601f506f", "e8626128cceeaf23"},
	"closed-loop/cluster/coordinator/seed3":         {"d33069c13e11bb04", "338ed7e758b936ea"},
	"closed-loop/cluster/greedy-rebuild/seed1":      {"e63e8f71fac49966", "c34ee1f4044907df"},
	"closed-loop/cluster/greedy-rebuild/seed2":      {"b7ce57355ac0150a", "af5ebf3001756e58"},
	"closed-loop/cluster/greedy-rebuild/seed3":      {"382cd51a55398567", "b390087dd4a1b075"},
	"closed-loop/cluster/greedy/seed1":              {"e258d1c362481c6e", "c34ee1f4044907df"},
	"closed-loop/cluster/greedy/seed2":              {"59833f26464054b9", "af5ebf3001756e58"},
	"closed-loop/cluster/greedy/seed3":              {"558beebc5f4fcd58", "b390087dd4a1b075"},
	"closed-loop/grid/bucket-coloring/seed1":        {"37db92f9d811c94c", "44f1577421f20a85"},
	"closed-loop/grid/bucket-coloring/seed2":        {"af596f1298e1095f", "a2ec005ea25e33a4"},
	"closed-loop/grid/bucket-coloring/seed3":        {"45a4a519861fd4eb", "78c171421360c1dd"},
	"closed-loop/grid/bucket-tour-rebuild/seed1":    {"1a94ef566b5a73d5", "ccab8c33d0ba1b23"},
	"closed-loop/grid/bucket-tour-rebuild/seed2":    {"18a2da62de110024", "ecc97da2ad20299a"},
	"closed-loop/grid/bucket-tour-rebuild/seed3":    {"65f4798747a2aa63", "960a325649fa7df6"},
	"closed-loop/grid/bucket-tour/seed1":            {"7444ef30efc15542", "ccab8c33d0ba1b23"},
	"closed-loop/grid/bucket-tour/seed2":            {"3fb75a3c53bb9427", "ecc97da2ad20299a"},
	"closed-loop/grid/bucket-tour/seed3":            {"e839d2dc8a9b0f38", "960a325649fa7df6"},
	"closed-loop/grid/coordinator/seed1":            {"d0da0324185d005c", "bc2d362e1da8a1e2"},
	"closed-loop/grid/coordinator/seed2":            {"edc873aea1c38d9e", "f6273a7c2648cd7a"},
	"closed-loop/grid/coordinator/seed3":            {"88ffbcb8cc3c4a7b", "006dfde6ceb82ed4"},
	"closed-loop/grid/greedy-rebuild/seed1":         {"cc709986975e549c", "b9f9fc6b60e475ca"},
	"closed-loop/grid/greedy-rebuild/seed2":         {"6cd87564b79e4831", "a2817967a41cb3b9"},
	"closed-loop/grid/greedy-rebuild/seed3":         {"7376012716fe8a17", "7d373681a8401176"},
	"closed-loop/grid/greedy/seed1":                 {"e5f41cfd7288c055", "b9f9fc6b60e475ca"},
	"closed-loop/grid/greedy/seed2":                 {"6165a3a2b7076664", "a2817967a41cb3b9"},
	"closed-loop/grid/greedy/seed3":                 {"d5d2ad23eb797c2b", "7d373681a8401176"},
	"closed-loop/line/bucket-coloring/seed1":        {"b951994fafd8b955", "38443976f749a683"},
	"closed-loop/line/bucket-coloring/seed2":        {"19f0934b36b2f7f4", "8da9ae3cbaedcf57"},
	"closed-loop/line/bucket-coloring/seed3":        {"b45d7b01cf6fa1bf", "caea361ffd99030e"},
	"closed-loop/line/bucket-tour-rebuild/seed1":    {"684f6c2bad784ac6", "8404eb643c4c3882"},
	"closed-loop/line/bucket-tour-rebuild/seed2":    {"b7ecf4e960a1c59e", "31582e600d061e5d"},
	"closed-loop/line/bucket-tour-rebuild/seed3":    {"bf6ca69a617b33d0", "1605c953a6d2e2ed"},
	"closed-loop/line/bucket-tour/seed1":            {"0f9ac6e6f55036d9", "8404eb643c4c3882"},
	"closed-loop/line/bucket-tour/seed2":            {"8b5f64294e1de16e", "31582e600d061e5d"},
	"closed-loop/line/bucket-tour/seed3":            {"d9e3658759236cad", "1605c953a6d2e2ed"},
	"closed-loop/line/coordinator/seed1":            {"9882b1ccc5daccf5", "11b1f14698991842"},
	"closed-loop/line/coordinator/seed2":            {"17875d550d126029", "b090554780b0915d"},
	"closed-loop/line/coordinator/seed3":            {"7f16e015024cafe4", "212995904bffad18"},
	"closed-loop/line/greedy-rebuild/seed1":         {"7def90415c29f7b2", "852c653396025f43"},
	"closed-loop/line/greedy-rebuild/seed2":         {"e03a04e88381ac65", "e195949c157264d9"},
	"closed-loop/line/greedy-rebuild/seed3":         {"58182e3582010de3", "2275c36ad21c8efc"},
	"closed-loop/line/greedy/seed1":                 {"fbe15466e5441e23", "852c653396025f43"},
	"closed-loop/line/greedy/seed2":                 {"2378ff69692d5e2e", "e195949c157264d9"},
	"closed-loop/line/greedy/seed3":                 {"6ffe441b6505ff69", "2275c36ad21c8efc"},
	"distributed/clique/crashed/seed1":              {"dfb9de5a17fbd7d3", "58f39b1294b562bc"},
	"distributed/clique/crashed/seed2":              {"20662b98b0859fff", "3b0860a0a4a89da7"},
	"distributed/clique/crashed/seed3":              {"20108160dc05b822", "4dbcdb0c8497b7ce"},
	"distributed/clique/drop40/seed1":               {"b30624efabba418a", "e32bd73f3d224a55"},
	"distributed/clique/drop40/seed2":               {"0bb34742507df836", "cf0555cba800a97e"},
	"distributed/clique/drop40/seed3":               {"be5cf0655e701a2a", "e90a2cb824e66de2"},
	"distributed/clique/lossy/seed1":                {"451957a366ec5769", "5c69a44db5d4b544"},
	"distributed/clique/lossy/seed2":                {"86c0d57a6c0f1abc", "f2500d93df213cf3"},
	"distributed/clique/lossy/seed3":                {"1ab26fa6aac8a542", "20fe5787677642df"},
	"distributed/clique/none/seed1":                 {"f18b7d6e67628eae", "44ba80e8ba4c9d75"},
	"distributed/clique/none/seed2":                 {"5ce4a9977007d008", "f69b494bdde995f1"},
	"distributed/clique/none/seed3":                 {"e09c7ca94a90416d", "e09257bed825d97f"},
	"distributed/cluster/crashed/seed1":             {"22e69fbc3e7b0b08", "486b64b314ef1831"},
	"distributed/cluster/crashed/seed2":             {"eebc3bf77a41b81a", "2f70555b2044953e"},
	"distributed/cluster/crashed/seed3":             {"961ea6fe3d0041ea", "2672c90fe211e488"},
	"distributed/cluster/drop40/seed1":              {"906a66f8be130863", "c0d86e7a249df666"},
	"distributed/cluster/drop40/seed2":              {"03212f94618095fd", "263dce94537c62dc"},
	"distributed/cluster/drop40/seed3":              {"90b9317c050fc52a", "1de8c944f7532a49"},
	"distributed/cluster/lossy/seed1":               {"e3d68718efc69126", "abf4d2d962d000d0"},
	"distributed/cluster/lossy/seed2":               {"d2090e041936b854", "d4988ff66916b1a2"},
	"distributed/cluster/lossy/seed3":               {"354371769dd4e53c", "584721f8722aced3"},
	"distributed/cluster/none/seed1":                {"ba6dede705ff77e2", "09d3c7346608af5a"},
	"distributed/cluster/none/seed2":                {"0ac0136a12ac1d90", "63244f8cba20ef82"},
	"distributed/cluster/none/seed3":                {"5b311a84dc54d80f", "6d51bcac4535377b"},
	"distributed/grid/crashed/seed1":                {"dc8118efc8dc7817", "16062d8503ce0333"},
	"distributed/grid/crashed/seed2":                {"e378f8da9ad7052d", "e851a635213683d0"},
	"distributed/grid/crashed/seed3":                {"9362fe7b94acdfd0", "de1041c6b9ff227b"},
	"distributed/grid/drop40/seed1":                 {"627f702450941bcb", "1c4e0de55ac32929"},
	"distributed/grid/drop40/seed2":                 {"7592356aa4640df6", "4ccfe3b676b0fa90"},
	"distributed/grid/drop40/seed3":                 {"c1e26a6024c888d7", "0f9bb19fecd89b1a"},
	"distributed/grid/lossy/seed1":                  {"b629ca082c1ad8c9", "7adb4c5690fb36f0"},
	"distributed/grid/lossy/seed2":                  {"2a13b8b16d377f5d", "8cf12c4b1dfdcdbf"},
	"distributed/grid/lossy/seed3":                  {"bff1f07aa051e8d8", "bfe3ea334def8bb9"},
	"distributed/grid/none/seed1":                   {"33a4e7d77fc72dae", "279d1bc95045f0f8"},
	"distributed/grid/none/seed2":                   {"60d1fcb3ca07d367", "13ff516ebae0b1d6"},
	"distributed/grid/none/seed3":                   {"d1dda1005505084b", "085757956c43481a"},
	"distributed/line/crashed/seed1":                {"f4d8d1d3ea009020", "78e384eb45c7d25b"},
	"distributed/line/crashed/seed2":                {"ff84aee14e05008e", "38532020cbe0ad9d"},
	"distributed/line/crashed/seed3":                {"a0babd9b85f7c5ae", "40876e2f93073706"},
	"distributed/line/drop40/seed1":                 {"3b98ed07a0dd9e72", "6e30da4953fc76ef"},
	"distributed/line/drop40/seed2":                 {"db609864df538553", "be116d0b75831fd3"},
	"distributed/line/drop40/seed3":                 {"5d9fa5969fae136b", "19170604fc6b0e1f"},
	"distributed/line/lossy/seed1":                  {"040c7b0aef75b5df", "d5c3a75f43f3a66c"},
	"distributed/line/lossy/seed2":                  {"f980c56d3ff46b1e", "11874c7eba70b9af"},
	"distributed/line/lossy/seed3":                  {"bc77fbb506451784", "1ebb13bf538022b4"},
	"distributed/line/none/seed1":                   {"daab53843636a68e", "89d6b3634bf10274"},
	"distributed/line/none/seed2":                   {"8acddab179cc7a01", "f850786c17099cd0"},
	"distributed/line/none/seed3":                   {"07507bdff96afc29", "654ae28c9bc709d9"},
	"run/clique/bucket-coloring/seed1":              {"dda331b477fb5927", "756cbae4184474a6"},
	"run/clique/bucket-coloring/seed2":              {"812e1e47deeb62bc", "156f076abd771650"},
	"run/clique/bucket-coloring/seed3":              {"89f3741117873af6", "0f7ebc56b1d01107"},
	"run/clique/bucket-list/seed1":                  {"e999a96509655f7a", "efd15d8f4d194b46"},
	"run/clique/bucket-list/seed2":                  {"2e34fa561ba53bb1", "1075b84986d8bb49"},
	"run/clique/bucket-list/seed3":                  {"1decdabe2697767d", "0f7ebc56b1d01107"},
	"run/clique/bucket-random-suffix/seed1":         {"d9aa35e75c715fa0", "889e3d595dfd7dbb"},
	"run/clique/bucket-random-suffix/seed2":         {"54b6d289688f1098", "bea26b305297897a"},
	"run/clique/bucket-random-suffix/seed3":         {"2d97d63cf3f61045", "680dcfacad80eeb1"},
	"run/clique/bucket-tour-slow/seed1":             {"bb14e41386a364d7", "efedb14ea850e1b5"},
	"run/clique/bucket-tour-slow/seed2":             {"37544aa0e12d29f8", "c84963d89653cc20"},
	"run/clique/bucket-tour-slow/seed3":             {"23aae6d2049a6e86", "99a34f28fa02968f"},
	"run/clique/bucket-tour/seed1":                  {"e109035d97644eba", "ab78d8980cbc17bc"},
	"run/clique/bucket-tour/seed2":                  {"d766d26951f942d9", "a046ddaed658e4f7"},
	"run/clique/bucket-tour/seed3":                  {"7002e54283478a4a", "a45cb03674420206"},
	"run/clique/coordinator/seed1":                  {"38e3d7c1ad22de1b", "c65a9b906d785670"},
	"run/clique/coordinator/seed2":                  {"c30f50f544dbea85", "e05c0ccac899a9ed"},
	"run/clique/coordinator/seed3":                  {"4d44ab9e885f568c", "6585e1bff94e5385"},
	"run/clique/distributed/seed1":                  {"2b09876fcc247cb3", "b2079028339d5967"},
	"run/clique/distributed/seed2":                  {"03fc4f1e4af805c5", "0b244f9c9d2f0ef6"},
	"run/clique/distributed/seed3":                  {"77085c55c63bcdda", "d8a846447ef4798e"},
	"run/clique/greedy-linkcap/seed1":               {"58d4f73d90a4554b", "8a50e767c118cdec"},
	"run/clique/greedy-linkcap/seed2":               {"7d7d4d94bab9974e", "5cbe687bf3e5660d"},
	"run/clique/greedy-linkcap/seed3":               {"f06116cf8dbabc67", "346df0ff65242cb6"},
	"run/clique/greedy-pad2/seed1":                  {"b6bc4a9b4c96be25", "ee05cd2ab85e9879"},
	"run/clique/greedy-pad2/seed2":                  {"269ace92efdf2ab2", "b7468403ec0334d8"},
	"run/clique/greedy-pad2/seed3":                  {"17113ff9d4ffea8b", "6cf83b780a891c9b"},
	"run/clique/greedy-slow/seed1":                  {"fa8f30b1307ad176", "ee05cd2ab85e9879"},
	"run/clique/greedy-slow/seed2":                  {"041b80426390dac3", "80a2b2137e507dd0"},
	"run/clique/greedy-slow/seed3":                  {"c04d09ff894dda38", "6cf83b780a891c9b"},
	"run/clique/greedy-uniform/seed1":               {"05db6353f6cde34a", "b699b4976755fa69"},
	"run/clique/greedy-uniform/seed2":               {"7fdc1024008d7e38", "411dc35f88c62409"},
	"run/clique/greedy-uniform/seed3":               {"fe5837cc78ce4c17", "741a59d3b863d78c"},
	"run/clique/greedy/seed1":                       {"8f7f321565cb3efa", "d7b2c0a61cb482a2"},
	"run/clique/greedy/seed2":                       {"93a595168c8473ac", "a2b960a4192b4b18"},
	"run/clique/greedy/seed3":                       {"1b3d35c277ba0a92", "7e9c1d48cc237d85"},
	"run/clique/window/seed1":                       {"59dbb43ef4cec75b", "5704b2a7eec84348"},
	"run/clique/window/seed2":                       {"a8c5c5134ba20e26", "ff3bd2c68bc7ff7d"},
	"run/clique/window/seed3":                       {"84f98106ce464816", "f32a1a87b7cf94c4"},
	"run/cluster/bucket-coloring/seed1":             {"e1b7371913678dbb", "e56ed88a4cd62fad"},
	"run/cluster/bucket-coloring/seed2":             {"1dbb430fbf833b9a", "3594a900d43a224f"},
	"run/cluster/bucket-coloring/seed3":             {"e96c9879425cb859", "a63484c443748a1f"},
	"run/cluster/bucket-list/seed1":                 {"dc0ae171a7dc56aa", "e72587345bbf5b83"},
	"run/cluster/bucket-list/seed2":                 {"e3ca6cabfd95ef17", "9e681a22b2abc08d"},
	"run/cluster/bucket-list/seed3":                 {"5da58420e063b505", "09b29177ed9147f4"},
	"run/cluster/bucket-random-suffix/seed1":        {"144fce8bcedbf0e3", "7942a0f1b4582fe9"},
	"run/cluster/bucket-random-suffix/seed2":        {"cbe08539e8824d24", "0d51056ef412d14d"},
	"run/cluster/bucket-random-suffix/seed3":        {"4c3b3d351321240c", "76426aefa3e819ed"},
	"run/cluster/bucket-tour-slow/seed1":            {"85030d9e72993f46", "2ff6f0bfa604b2e3"},
	"run/cluster/bucket-tour-slow/seed2":            {"9b106341bf0c962c", "6f18e2d95be50636"},
	"run/cluster/bucket-tour-slow/seed3":            {"974e399539e5c2b5", "3f197b977bed80fb"},
	"run/cluster/bucket-tour/seed1":                 {"95fc0c3cb04c4cdc", "70d7882d30c9d76a"},
	"run/cluster/bucket-tour/seed2":                 {"eb1bf54a7e8515dd", "007a4c9c0a1bc91c"},
	"run/cluster/bucket-tour/seed3":                 {"a049f2d05b972c79", "0ab9046d90a11cd9"},
	"run/cluster/coordinator/seed1":                 {"4e2f16cf8a4e3976", "ff90723444188526"},
	"run/cluster/coordinator/seed2":                 {"1f973ba2ad46532d", "27ec9ae8a7a69de0"},
	"run/cluster/coordinator/seed3":                 {"745ec9345b67d2b3", "8f06908e9409b23c"},
	"run/cluster/distributed/seed1":                 {"8b50c5448a4b3495", "a6813bc4e12fed5d"},
	"run/cluster/distributed/seed2":                 {"f4d6a91903e52323", "ae2578f6d96813ca"},
	"run/cluster/distributed/seed3":                 {"6b17e99e75f2f03a", "10f719b435ba290b"},
	"run/cluster/greedy-linkcap/seed1":              {"8ebf8f01f8118a5f", "5252bcb0523399d3"},
	"run/cluster/greedy-linkcap/seed2":              {"c026d01e6db3fc6f", "3676297921621dab"},
	"run/cluster/greedy-linkcap/seed3":              {"3459078875d07a96", "273533d3194be027"},
	"run/cluster/greedy-pad2/seed1":                 {"fd07e112e92d2791", "e2005efaa133e1b9"},
	"run/cluster/greedy-pad2/seed2":                 {"d01a3c40dfca8f57", "b44fd48725e61371"},
	"run/cluster/greedy-pad2/seed3":                 {"6f1bc9f4926aea30", "3a44324af51c7a1b"},
	"run/cluster/greedy-slow/seed1":                 {"ff2873a816da2629", "9fda55c712cd1c9c"},
	"run/cluster/greedy-slow/seed2":                 {"a2193021ef0e284d", "6d6fdd38ed75f968"},
	"run/cluster/greedy-slow/seed3":                 {"d2d6439f696cc0ce", "3a44324af51c7a1b"},
	"run/cluster/greedy-uniform/seed1":              {"71eaa6a950bc6299", "7837d8fba36e47a4"},
	"run/cluster/greedy-uniform/seed2":              {"e3b724d26e389193", "ca3638e5f07e2c5a"},
	"run/cluster/greedy-uniform/seed3":              {"e45d2fb9586dd5d9", "656cfc428f738fd7"},
	"run/cluster/greedy/seed1":                      {"85cece63c48cd7c2", "ff8f5783718f717e"},
	"run/cluster/greedy/seed2":                      {"f44ac09759398a79", "52d5a198fcf8a5a6"},
	"run/cluster/greedy/seed3":                      {"4af4f4f327a73866", "6f74ecd780cd3504"},
	"run/cluster/window/seed1":                      {"29ab047b6c5c691c", "0859fae2fe7669ea"},
	"run/cluster/window/seed2":                      {"0fbb239f05ac618d", "1a111b5695ecea7b"},
	"run/cluster/window/seed3":                      {"5a1976099816b2ab", "89246d938da77af2"},
	"run/grid/bucket-coloring/seed1":                {"afd725f9fbd231ee", "e9a2c226ef34d968"},
	"run/grid/bucket-coloring/seed2":                {"371b03f01f46efb8", "fbb652448c1f92f8"},
	"run/grid/bucket-coloring/seed3":                {"71194361819563ea", "6ae7fe3ebed8f3ad"},
	"run/grid/bucket-list/seed1":                    {"f2c29a78e954e3ca", "79821198d53f44a2"},
	"run/grid/bucket-list/seed2":                    {"6573c5277f694fb2", "75c462431bf7eef2"},
	"run/grid/bucket-list/seed3":                    {"26c558563d98d2a9", "bcd7e80a5d66a091"},
	"run/grid/bucket-random-suffix/seed1":           {"a793e283ccd4bfc2", "7d9faac00ef0c17c"},
	"run/grid/bucket-random-suffix/seed2":           {"e065b1e75f676d53", "2f442fa201cbe65c"},
	"run/grid/bucket-random-suffix/seed3":           {"5056c0a0956cd10b", "c5516ce17c25231f"},
	"run/grid/bucket-tour-slow/seed1":               {"f0bae88f46e0ccda", "c185730aa91b8bba"},
	"run/grid/bucket-tour-slow/seed2":               {"b45fff467b43bfbb", "5c574035db6e388c"},
	"run/grid/bucket-tour-slow/seed3":               {"7e6c52eb955e5f5e", "08389a808ff4dd99"},
	"run/grid/bucket-tour/seed1":                    {"cca5db0edcfcd9d7", "2ed60e1db881ed97"},
	"run/grid/bucket-tour/seed2":                    {"f810c1e25959a09b", "a7b8fe6b1a51d0bc"},
	"run/grid/bucket-tour/seed3":                    {"46320b854f4e4ba9", "a9b509438f4a2e0f"},
	"run/grid/coordinator/seed1":                    {"49256194ba793eb6", "454e32741e0ded32"},
	"run/grid/coordinator/seed2":                    {"c2ae54af77360766", "964f29a97b9d3ba2"},
	"run/grid/coordinator/seed3":                    {"a600567e6e38bbd0", "c18296064a424157"},
	"run/grid/distributed/seed1":                    {"9fad1fff261fe087", "83d26adb122a078a"},
	"run/grid/distributed/seed2":                    {"9795ac2a00d8f0a1", "d8f55f3a75903f97"},
	"run/grid/distributed/seed3":                    {"ee31519638d2d29b", "48dd17bce19ffc4d"},
	"run/grid/greedy-linkcap/seed1":                 {"e152e6238864b7ef", "e08df170a1abe745"},
	"run/grid/greedy-linkcap/seed2":                 {"57eee09968d8ec49", "9c175efb134d0a23"},
	"run/grid/greedy-linkcap/seed3":                 {"6b1652fd6f9fecd1", "02f90e1058568089"},
	"run/grid/greedy-pad2/seed1":                    {"7be3b51e51cdf64c", "76610ac269d992f2"},
	"run/grid/greedy-pad2/seed2":                    {"799c463242c4c7f0", "c38e727e5325d26f"},
	"run/grid/greedy-pad2/seed3":                    {"2377f1fc52d25823", "f42edbdbd5112466"},
	"run/grid/greedy-slow/seed1":                    {"502e6316d831be4e", "ad03ccbb5e0e2265"},
	"run/grid/greedy-slow/seed2":                    {"b420501758741103", "c38e727e5325d26f"},
	"run/grid/greedy-slow/seed3":                    {"422b1f9ce58699b9", "d84595005531203c"},
	"run/grid/greedy-uniform/seed1":                 {"21bd1a49a909c439", "058d9b1aa1138bd6"},
	"run/grid/greedy-uniform/seed2":                 {"c56bc1409cebbe1d", "92cf58d1d02de6a1"},
	"run/grid/greedy-uniform/seed3":                 {"be2567101f947d0d", "ca5b38cca60300ed"},
	"run/grid/greedy/seed1":                         {"ca9bbca100bf277c", "e3548dbc23f03a5f"},
	"run/grid/greedy/seed2":                         {"2233560f39723bc5", "db7c5034d385fd38"},
	"run/grid/greedy/seed3":                         {"a86d83ae4fcf1f6f", "236689a0d7e08334"},
	"run/grid/window/seed1":                         {"b24174058d7eef35", "afe46981810db164"},
	"run/grid/window/seed2":                         {"145595335415047e", "400fe846eba61567"},
	"run/grid/window/seed3":                         {"d3d5a53516a225c1", "763263530cd49e16"},
	"run/line/bucket-coloring/seed1":                {"b8d20fdf6eb7d4c6", "e55866410a5f04f4"},
	"run/line/bucket-coloring/seed2":                {"b006762a6b786330", "df14b52c3ae81d74"},
	"run/line/bucket-coloring/seed3":                {"5869d669d73dec53", "529e93091bf070d9"},
	"run/line/bucket-list/seed1":                    {"3833d61cd6df8dae", "f756de2ac513f48d"},
	"run/line/bucket-list/seed2":                    {"4867f64f8810c69a", "71a6d5ece4313a78"},
	"run/line/bucket-list/seed3":                    {"b01f27f86de77787", "14956b78d9de50a4"},
	"run/line/bucket-random-suffix/seed1":           {"167a691a9ca41bd2", "14e03f902499032c"},
	"run/line/bucket-random-suffix/seed2":           {"4026ecbf747f00fa", "e68d5bc15eb25f02"},
	"run/line/bucket-random-suffix/seed3":           {"1b7fd2be5abd72ee", "92ff58e430a8e288"},
	"run/line/bucket-tour-slow/seed1":               {"1aabd464d73f7db7", "7e25e52de972c99d"},
	"run/line/bucket-tour-slow/seed2":               {"af962fb3a7db0cb3", "bbbef7592752af82"},
	"run/line/bucket-tour-slow/seed3":               {"3f8f3f38b257f535", "59c7bc0f395711df"},
	"run/line/bucket-tour/seed1":                    {"0800d4e1cc1d1328", "cb4c55585ccff3ce"},
	"run/line/bucket-tour/seed2":                    {"fbd91720614963ba", "33fda1f20d0cd6b1"},
	"run/line/bucket-tour/seed3":                    {"1b960c9c8e7eb544", "69202d9c490a0112"},
	"run/line/coordinator/seed1":                    {"436b9ded52b05b0b", "f883bfcb8cbbfb37"},
	"run/line/coordinator/seed2":                    {"d83a9fe6603e544c", "96e81e1e9a725702"},
	"run/line/coordinator/seed3":                    {"09a2f083edd5077f", "d20b6194efaefab2"},
	"run/line/distributed/seed1":                    {"500368e5a2c03dde", "87b4c0321dd1ff39"},
	"run/line/distributed/seed2":                    {"88347429532d2973", "8ea6eb534e1a1871"},
	"run/line/distributed/seed3":                    {"36309c7606f3cf80", "1999dc249fd919e5"},
	"run/line/greedy-linkcap/seed1":                 {"966d1496bf00cca9", "6fc27543c82aa396"},
	"run/line/greedy-linkcap/seed2":                 {"b74ecfbf25f0b054", "84fe90940c97bac3"},
	"run/line/greedy-linkcap/seed3":                 {"935113e42f91b24e", "5473f72a9ad95293"},
	"run/line/greedy-pad2/seed1":                    {"d35573f0e4f7b648", "8f062d1107aafa53"},
	"run/line/greedy-pad2/seed2":                    {"cc13888e22e2c03d", "33c98f641e640ad2"},
	"run/line/greedy-pad2/seed3":                    {"d650a4a4ddaf5f91", "f586a2f91706a3ad"},
	"run/line/greedy-slow/seed1":                    {"6cd9d4eb4c6c8c36", "e761f0da0a69a883"},
	"run/line/greedy-slow/seed2":                    {"fcd1bfd646f419ec", "f6d07cccfaf61e1a"},
	"run/line/greedy-slow/seed3":                    {"ed2cb1c3fc2ac590", "48d7b1e84463783e"},
	"run/line/greedy-uniform/seed1":                 {"c23bc084102971ff", "84daa9456d8d7e76"},
	"run/line/greedy-uniform/seed2":                 {"90bef96f57bc6705", "76645d46da7884b5"},
	"run/line/greedy-uniform/seed3":                 {"b71d81bce785b05c", "6fd6815a1cd1ce8c"},
	"run/line/greedy/seed1":                         {"b7d31ea6814096b7", "649cb95baf486e24"},
	"run/line/greedy/seed2":                         {"40d617b03cc420ce", "bb272c394f5231f2"},
	"run/line/greedy/seed3":                         {"cd4205521bc780e6", "8614ccebfa23c3f7"},
	"run/line/window/seed1":                         {"6b8d687c7dca355b", "dcc38fc2f26c50e7"},
	"run/line/window/seed2":                         {"8a976f13d0430ad0", "e363e8a731e01751"},
	"run/line/window/seed3":                         {"7fd91075c767a561", "8f822b209664a117"},
	"stream/cluster/bucket-coloring/bursty":         {"4c1ab6039e1d459f", "2d732a57fd654b7c"},
	"stream/cluster/bucket-coloring/poisson":        {"fca45902939853e6", "c3d6ea788bea5a20"},
	"stream/cluster/bucket-list/bursty":             {"0d6f34b6e6539511", "04934b789ef24140"},
	"stream/cluster/bucket-list/poisson":            {"e747cd77cd2a2e2d", "c3d6ea788bea5a20"},
	"stream/cluster/bucket-tour/bursty":             {"99c8ac2489744c8f", "b721f96df1c211fa"},
	"stream/cluster/bucket-tour/poisson":            {"712aba6fe268877d", "8a10978f7dd35a83"},
	"stream/cluster/coordinator/bursty":             {"a52477b99ae0877d", "82becccecb869e43"},
	"stream/cluster/coordinator/poisson":            {"286d5484b16766da", "2a2f5aac20480485"},
	"stream/cluster/greedy-uniform/bursty":          {"933ac78c68c3e81a", "f7c61fd1eb755d3f"},
	"stream/cluster/greedy-uniform/poisson":         {"54a427afa2e028f0", "20f55358953d2e28"},
	"stream/cluster/greedy/bursty":                  {"9e956ca27cf6d3c5", "a794be465e3a981d"},
	"stream/cluster/greedy/poisson":                 {"224110faa71d48cc", "d138239e41c13811"},
	"stream/cluster/window/bursty":                  {"7eb6d6c712b1984d", "04cef61c58a1980c"},
	"stream/cluster/window/poisson":                 {"9640ff215c85422e", "37fdc4fb8a7ae611"},
	"stream/grid/bucket-coloring/bursty":            {"410518c1f86b59f5", "45e0065df4110948"},
	"stream/grid/bucket-coloring/poisson":           {"d6b3d97ae67db01b", "977db6e825dbae3d"},
	"stream/grid/bucket-list/bursty":                {"921bf22b085500bd", "c6ad1252971b2fca"},
	"stream/grid/bucket-list/poisson":               {"bc35e1961b421af4", "977db6e825dbae3d"},
	"stream/grid/bucket-tour/bursty":                {"ad6cfba678de740d", "4622099b7adb7328"},
	"stream/grid/bucket-tour/poisson":               {"193d6f705d139df6", "6788318974ec377f"},
	"stream/grid/coordinator/bursty":                {"53f908d8d628c2db", "e91fe868d1df7e0d"},
	"stream/grid/coordinator/poisson":               {"5e84c4b55f39ec9a", "608a697426a50834"},
	"stream/grid/greedy-uniform/bursty":             {"9cba096362f021f6", "9d815e23d2ed8afe"},
	"stream/grid/greedy-uniform/poisson":            {"19d4c2c1c52e16a8", "f9aac521a783f471"},
	"stream/grid/greedy/bursty":                     {"cfd20eaa48e7349e", "82027e3d618028ec"},
	"stream/grid/greedy/poisson":                    {"f3187d15136d93bd", "f277d3ac69525e8b"},
	"stream/grid/window/bursty":                     {"a9612d7e379cfebf", "1c854552e824634f"},
	"stream/grid/window/poisson":                    {"c26128719e5fe880", "5ddef09f35f58c43"},
}
