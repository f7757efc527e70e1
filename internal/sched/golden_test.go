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
	"closed-loop/clique/bucket-coloring/seed1":      {"dcff57e02d563ddf", "e60822eb3970d938"},
	"closed-loop/clique/bucket-coloring/seed2":      {"254d7fca58df385b", "ef22049e1df02308"},
	"closed-loop/clique/bucket-coloring/seed3":      {"8e19928292618911", "50a9c883e8b4b6f6"},
	"closed-loop/clique/bucket-tour-rebuild/seed1":  {"de2eb891d5f1d227", "d5bf23eba838aa10"},
	"closed-loop/clique/bucket-tour-rebuild/seed2":  {"9d4d251e12f81ece", "04e9d5cfc8abc256"},
	"closed-loop/clique/bucket-tour-rebuild/seed3":  {"b8b9ea7bf7c08a77", "f2e39bcaa3b2b837"},
	"closed-loop/clique/bucket-tour/seed1":          {"579f842ac553f2b6", "d5bf23eba838aa10"},
	"closed-loop/clique/bucket-tour/seed2":          {"cf4aaaf464667669", "04e9d5cfc8abc256"},
	"closed-loop/clique/bucket-tour/seed3":          {"9ab8ac3e45aeefc5", "f2e39bcaa3b2b837"},
	"closed-loop/clique/coordinator/seed1":          {"a2d2fc90ee6f4f1a", "e19290b6d013bc6b"},
	"closed-loop/clique/coordinator/seed2":          {"280345bce706ace8", "14850e0a3ec85e3c"},
	"closed-loop/clique/coordinator/seed3":          {"37395be59288af32", "0c4e63738e265908"},
	"closed-loop/clique/greedy-rebuild/seed1":       {"a959fadc36966df1", "e0693131cf96caa7"},
	"closed-loop/clique/greedy-rebuild/seed2":       {"bbcd67aa851ed98d", "d47922856742380e"},
	"closed-loop/clique/greedy-rebuild/seed3":       {"42ef1c1f68acf8e8", "0764e1f62cea8a67"},
	"closed-loop/clique/greedy/seed1":               {"5dc7f7e196d0ba2a", "e0693131cf96caa7"},
	"closed-loop/clique/greedy/seed2":               {"40fec0fe558fbc10", "d47922856742380e"},
	"closed-loop/clique/greedy/seed3":               {"79e550d6f6ef04ad", "0764e1f62cea8a67"},
	"closed-loop/cluster/bucket-coloring/seed1":     {"bb12af85192fc673", "469b9def15d05329"},
	"closed-loop/cluster/bucket-coloring/seed2":     {"dd7a89d42e18a2f3", "01f9702fb758a5be"},
	"closed-loop/cluster/bucket-coloring/seed3":     {"62ebc024af998ac0", "92c14f4bfc394b4e"},
	"closed-loop/cluster/bucket-tour-rebuild/seed1": {"fe47be209c0f3e42", "fd826eb966780ebb"},
	"closed-loop/cluster/bucket-tour-rebuild/seed2": {"acc9ee676de9b53a", "0daa6620d10f0302"},
	"closed-loop/cluster/bucket-tour-rebuild/seed3": {"a6cb665c752a7b4f", "e352ba7e7de5be31"},
	"closed-loop/cluster/bucket-tour/seed1":         {"039e1045d6c2b91d", "fd826eb966780ebb"},
	"closed-loop/cluster/bucket-tour/seed2":         {"c22ab0e76d135320", "0daa6620d10f0302"},
	"closed-loop/cluster/bucket-tour/seed3":         {"3cb4d63f1b51a0d9", "e352ba7e7de5be31"},
	"closed-loop/cluster/coordinator/seed1":         {"a7b2b2412dbedff7", "9000244925074374"},
	"closed-loop/cluster/coordinator/seed2":         {"56ad3877601f506f", "b8990ed0fd3ea07f"},
	"closed-loop/cluster/coordinator/seed3":         {"d33069c13e11bb04", "cd9163f46aa24235"},
	"closed-loop/cluster/greedy-rebuild/seed1":      {"e63e8f71fac49966", "fe9b89e6db910b57"},
	"closed-loop/cluster/greedy-rebuild/seed2":      {"b7ce57355ac0150a", "91730482a0f2ad66"},
	"closed-loop/cluster/greedy-rebuild/seed3":      {"382cd51a55398567", "a15ae1721497ccc4"},
	"closed-loop/cluster/greedy/seed1":              {"e258d1c362481c6e", "fe9b89e6db910b57"},
	"closed-loop/cluster/greedy/seed2":              {"59833f26464054b9", "91730482a0f2ad66"},
	"closed-loop/cluster/greedy/seed3":              {"558beebc5f4fcd58", "a15ae1721497ccc4"},
	"closed-loop/grid/bucket-coloring/seed1":        {"37db92f9d811c94c", "424b7cc0c2462f10"},
	"closed-loop/grid/bucket-coloring/seed2":        {"af596f1298e1095f", "cc8f16aa4e992d27"},
	"closed-loop/grid/bucket-coloring/seed3":        {"45a4a519861fd4eb", "8d3f64f20304727b"},
	"closed-loop/grid/bucket-tour-rebuild/seed1":    {"1a94ef566b5a73d5", "7a3709635aab9d6a"},
	"closed-loop/grid/bucket-tour-rebuild/seed2":    {"18a2da62de110024", "0fb573d229a0c9e0"},
	"closed-loop/grid/bucket-tour-rebuild/seed3":    {"65f4798747a2aa63", "b0ee535dac3527fd"},
	"closed-loop/grid/bucket-tour/seed1":            {"7444ef30efc15542", "7a3709635aab9d6a"},
	"closed-loop/grid/bucket-tour/seed2":            {"3fb75a3c53bb9427", "0fb573d229a0c9e0"},
	"closed-loop/grid/bucket-tour/seed3":            {"e839d2dc8a9b0f38", "b0ee535dac3527fd"},
	"closed-loop/grid/coordinator/seed1":            {"d0da0324185d005c", "3af5ef56a5997b07"},
	"closed-loop/grid/coordinator/seed2":            {"edc873aea1c38d9e", "cac27228f7c24d4f"},
	"closed-loop/grid/coordinator/seed3":            {"88ffbcb8cc3c4a7b", "62e298d8ccf69be9"},
	"closed-loop/grid/greedy-rebuild/seed1":         {"cc709986975e549c", "b742aa7f5c4e4921"},
	"closed-loop/grid/greedy-rebuild/seed2":         {"6cd87564b79e4831", "f79239f2eb92fc9b"},
	"closed-loop/grid/greedy-rebuild/seed3":         {"7376012716fe8a17", "d716127c1ad5905d"},
	"closed-loop/grid/greedy/seed1":                 {"e5f41cfd7288c055", "b742aa7f5c4e4921"},
	"closed-loop/grid/greedy/seed2":                 {"6165a3a2b7076664", "f79239f2eb92fc9b"},
	"closed-loop/grid/greedy/seed3":                 {"d5d2ad23eb797c2b", "d716127c1ad5905d"},
	"closed-loop/line/bucket-coloring/seed1":        {"b951994fafd8b955", "3a1d53403093648a"},
	"closed-loop/line/bucket-coloring/seed2":        {"19f0934b36b2f7f4", "aca26c117b5a05d8"},
	"closed-loop/line/bucket-coloring/seed3":        {"b45d7b01cf6fa1bf", "a4ff98c3d90cdda3"},
	"closed-loop/line/bucket-tour-rebuild/seed1":    {"684f6c2bad784ac6", "1aaf3e3dd30df609"},
	"closed-loop/line/bucket-tour-rebuild/seed2":    {"b7ecf4e960a1c59e", "a8d2534ac4288002"},
	"closed-loop/line/bucket-tour-rebuild/seed3":    {"bf6ca69a617b33d0", "dbc5164ebfd7cf39"},
	"closed-loop/line/bucket-tour/seed1":            {"0f9ac6e6f55036d9", "1aaf3e3dd30df609"},
	"closed-loop/line/bucket-tour/seed2":            {"8b5f64294e1de16e", "a8d2534ac4288002"},
	"closed-loop/line/bucket-tour/seed3":            {"d9e3658759236cad", "dbc5164ebfd7cf39"},
	"closed-loop/line/coordinator/seed1":            {"9882b1ccc5daccf5", "9389f8ca22f0d706"},
	"closed-loop/line/coordinator/seed2":            {"17875d550d126029", "3d98fdf016d52eae"},
	"closed-loop/line/coordinator/seed3":            {"7f16e015024cafe4", "aa24bf717659eb71"},
	"closed-loop/line/greedy-rebuild/seed1":         {"7def90415c29f7b2", "c746ec9f10b4cc69"},
	"closed-loop/line/greedy-rebuild/seed2":         {"e03a04e88381ac65", "d5619dca1138be90"},
	"closed-loop/line/greedy-rebuild/seed3":         {"58182e3582010de3", "31b89185a49ec82e"},
	"closed-loop/line/greedy/seed1":                 {"fbe15466e5441e23", "c746ec9f10b4cc69"},
	"closed-loop/line/greedy/seed2":                 {"2378ff69692d5e2e", "d5619dca1138be90"},
	"closed-loop/line/greedy/seed3":                 {"6ffe441b6505ff69", "31b89185a49ec82e"},
	"distributed/clique/crashed/seed1":              {"dfb9de5a17fbd7d3", "c96dffd051103c81"},
	"distributed/clique/crashed/seed2":              {"20662b98b0859fff", "c621718795dd6f78"},
	"distributed/clique/crashed/seed3":              {"20108160dc05b822", "38907c7d059d1413"},
	"distributed/clique/drop40/seed1":               {"b30624efabba418a", "47ba26e1f00bb7ad"},
	"distributed/clique/drop40/seed2":               {"0bb34742507df836", "aa0684cd76b93cee"},
	"distributed/clique/drop40/seed3":               {"be5cf0655e701a2a", "4c7f0a760c13f878"},
	"distributed/clique/lossy/seed1":                {"451957a366ec5769", "1dd70ef5fb0b1721"},
	"distributed/clique/lossy/seed2":                {"86c0d57a6c0f1abc", "78de94c799c8a406"},
	"distributed/clique/lossy/seed3":                {"1ab26fa6aac8a542", "70b2e5839830ceff"},
	"distributed/clique/none/seed1":                 {"f18b7d6e67628eae", "bb86e0c02774ba8c"},
	"distributed/clique/none/seed2":                 {"5ce4a9977007d008", "da0ed5db254cdfe3"},
	"distributed/clique/none/seed3":                 {"e09c7ca94a90416d", "15d0f9ee09ecd952"},
	"distributed/cluster/crashed/seed1":             {"22e69fbc3e7b0b08", "41444d668e19f051"},
	"distributed/cluster/crashed/seed2":             {"eebc3bf77a41b81a", "a01bbcddce39d19f"},
	"distributed/cluster/crashed/seed3":             {"961ea6fe3d0041ea", "183f6b564caa1f0a"},
	"distributed/cluster/drop40/seed1":              {"906a66f8be130863", "642fbf63849c9bc0"},
	"distributed/cluster/drop40/seed2":              {"03212f94618095fd", "806a9b353280f65c"},
	"distributed/cluster/drop40/seed3":              {"90b9317c050fc52a", "c7f9254463edb3b6"},
	"distributed/cluster/lossy/seed1":               {"e3d68718efc69126", "e1fb2c9a38f2b931"},
	"distributed/cluster/lossy/seed2":               {"d2090e041936b854", "6a1b50cacaece107"},
	"distributed/cluster/lossy/seed3":               {"354371769dd4e53c", "877c2cc8864253c4"},
	"distributed/cluster/none/seed1":                {"ba6dede705ff77e2", "17b21c5f36a29ed4"},
	"distributed/cluster/none/seed2":                {"0ac0136a12ac1d90", "df877abbf4c22f00"},
	"distributed/cluster/none/seed3":                {"5b311a84dc54d80f", "9e232df3e89cc881"},
	"distributed/grid/crashed/seed1":                {"dc8118efc8dc7817", "75c2e16abc7dd42c"},
	"distributed/grid/crashed/seed2":                {"e378f8da9ad7052d", "63b5dfcd00f048aa"},
	"distributed/grid/crashed/seed3":                {"9362fe7b94acdfd0", "6ac2dd194dea0c63"},
	"distributed/grid/drop40/seed1":                 {"627f702450941bcb", "296a31642f2291dd"},
	"distributed/grid/drop40/seed2":                 {"7592356aa4640df6", "f7758083e9ea4f60"},
	"distributed/grid/drop40/seed3":                 {"c1e26a6024c888d7", "4ee222145581fd8d"},
	"distributed/grid/lossy/seed1":                  {"b629ca082c1ad8c9", "a8e9efc481a1e7f5"},
	"distributed/grid/lossy/seed2":                  {"2a13b8b16d377f5d", "7b1cd4b01df9c8f6"},
	"distributed/grid/lossy/seed3":                  {"bff1f07aa051e8d8", "343846b0cc3e1ae5"},
	"distributed/grid/none/seed1":                   {"33a4e7d77fc72dae", "1c9f8528b787471b"},
	"distributed/grid/none/seed2":                   {"60d1fcb3ca07d367", "20f7f5cd1c4a47c5"},
	"distributed/grid/none/seed3":                   {"d1dda1005505084b", "1d752a21d56b2614"},
	"distributed/line/crashed/seed1":                {"f4d8d1d3ea009020", "a92aff63b9ddd981"},
	"distributed/line/crashed/seed2":                {"ff84aee14e05008e", "899e938754273b91"},
	"distributed/line/crashed/seed3":                {"a0babd9b85f7c5ae", "c8fe516ce157bbf3"},
	"distributed/line/drop40/seed1":                 {"3b98ed07a0dd9e72", "29707ba5b16b3499"},
	"distributed/line/drop40/seed2":                 {"db609864df538553", "6ecc034ec1fa0393"},
	"distributed/line/drop40/seed3":                 {"5d9fa5969fae136b", "7dffc09d83ab497b"},
	"distributed/line/lossy/seed1":                  {"040c7b0aef75b5df", "d59137c769d3790d"},
	"distributed/line/lossy/seed2":                  {"f980c56d3ff46b1e", "ea27cb89009133bb"},
	"distributed/line/lossy/seed3":                  {"bc77fbb506451784", "9343083466f14901"},
	"distributed/line/none/seed1":                   {"daab53843636a68e", "0c6d2a7444ee7f34"},
	"distributed/line/none/seed2":                   {"8acddab179cc7a01", "03539eda9903edb9"},
	"distributed/line/none/seed3":                   {"07507bdff96afc29", "1c8cc02283b446d4"},
	"run/clique/bucket-coloring/seed1":              {"dda331b477fb5927", "4cad3a67c33cba46"},
	"run/clique/bucket-coloring/seed2":              {"812e1e47deeb62bc", "678d4cd4613c1de2"},
	"run/clique/bucket-coloring/seed3":              {"89f3741117873af6", "bd54f80d62d25e0c"},
	"run/clique/bucket-list/seed1":                  {"e999a96509655f7a", "1cea87e7d043762d"},
	"run/clique/bucket-list/seed2":                  {"2e34fa561ba53bb1", "356a96168cdbae3b"},
	"run/clique/bucket-list/seed3":                  {"1decdabe2697767d", "bd54f80d62d25e0c"},
	"run/clique/bucket-random-suffix/seed1":         {"d9aa35e75c715fa0", "5bf606860664ebf7"},
	"run/clique/bucket-random-suffix/seed2":         {"54b6d289688f1098", "fe8de46d9e4475ae"},
	"run/clique/bucket-random-suffix/seed3":         {"2d97d63cf3f61045", "be60df5afb946493"},
	"run/clique/bucket-tour-slow/seed1":             {"bb14e41386a364d7", "2660e1c74032b889"},
	"run/clique/bucket-tour-slow/seed2":             {"37544aa0e12d29f8", "19ed764dad6514a1"},
	"run/clique/bucket-tour-slow/seed3":             {"23aae6d2049a6e86", "dcfe2d70c29aed6b"},
	"run/clique/bucket-tour/seed1":                  {"e109035d97644eba", "56eb9c4d20d792b4"},
	"run/clique/bucket-tour/seed2":                  {"d766d26951f942d9", "37f444d428e06d3f"},
	"run/clique/bucket-tour/seed3":                  {"7002e54283478a4a", "23487b780fa2d8a7"},
	"run/clique/coordinator/seed1":                  {"38e3d7c1ad22de1b", "70a8d621b44a3984"},
	"run/clique/coordinator/seed2":                  {"c30f50f544dbea85", "e5e5178ea1cdba5c"},
	"run/clique/coordinator/seed3":                  {"4d44ab9e885f568c", "1d30d261c7548c74"},
	"run/clique/distributed/seed1":                  {"2b09876fcc247cb3", "a5824d5b17b40d32"},
	"run/clique/distributed/seed2":                  {"03fc4f1e4af805c5", "aca4232d05abd537"},
	"run/clique/distributed/seed3":                  {"77085c55c63bcdda", "d717f83a1dc6564f"},
	"run/clique/greedy-linkcap/seed1":               {"58d4f73d90a4554b", "3303df8e2886f599"},
	"run/clique/greedy-linkcap/seed2":               {"7d7d4d94bab9974e", "6c78d18e0201e0e7"},
	"run/clique/greedy-linkcap/seed3":               {"f06116cf8dbabc67", "b87858b79ec5fa66"},
	"run/clique/greedy-pad2/seed1":                  {"b6bc4a9b4c96be25", "42c79004f567b422"},
	"run/clique/greedy-pad2/seed2":                  {"269ace92efdf2ab2", "326b24536ffd8cc0"},
	"run/clique/greedy-pad2/seed3":                  {"17113ff9d4ffea8b", "e225cc0f7f22f4b3"},
	"run/clique/greedy-slow/seed1":                  {"fa8f30b1307ad176", "42c79004f567b422"},
	"run/clique/greedy-slow/seed2":                  {"041b80426390dac3", "c213e9fae0fc7597"},
	"run/clique/greedy-slow/seed3":                  {"c04d09ff894dda38", "e225cc0f7f22f4b3"},
	"run/clique/greedy-uniform/seed1":               {"05db6353f6cde34a", "a806fb8360b0f7af"},
	"run/clique/greedy-uniform/seed2":               {"7fdc1024008d7e38", "284dc6346083088b"},
	"run/clique/greedy-uniform/seed3":               {"fe5837cc78ce4c17", "d60e71ff1198da72"},
	"run/clique/greedy/seed1":                       {"8f7f321565cb3efa", "1c86fda31cddcaed"},
	"run/clique/greedy/seed2":                       {"93a595168c8473ac", "9a4efd0bc2871f73"},
	"run/clique/greedy/seed3":                       {"1b3d35c277ba0a92", "5c31eaeb7caba00a"},
	"run/clique/window/seed1":                       {"59dbb43ef4cec75b", "bdcace46a3393dbc"},
	"run/clique/window/seed2":                       {"a8c5c5134ba20e26", "3f18978c2adc895d"},
	"run/clique/window/seed3":                       {"84f98106ce464816", "debe3b3c333bb488"},
	"run/cluster/bucket-coloring/seed1":             {"e1b7371913678dbb", "dc7c8b5e0ed1127d"},
	"run/cluster/bucket-coloring/seed2":             {"1dbb430fbf833b9a", "d167834244f7ba41"},
	"run/cluster/bucket-coloring/seed3":             {"e96c9879425cb859", "07e554d67f864844"},
	"run/cluster/bucket-list/seed1":                 {"dc0ae171a7dc56aa", "3d143802e72249f7"},
	"run/cluster/bucket-list/seed2":                 {"e3ca6cabfd95ef17", "df093bf235504bab"},
	"run/cluster/bucket-list/seed3":                 {"5da58420e063b505", "8cb4fda9d3b9539e"},
	"run/cluster/bucket-random-suffix/seed1":        {"144fce8bcedbf0e3", "9e3937a961c9ce2e"},
	"run/cluster/bucket-random-suffix/seed2":        {"cbe08539e8824d24", "60e1523103ed8782"},
	"run/cluster/bucket-random-suffix/seed3":        {"4c3b3d351321240c", "525a85d3e37924e2"},
	"run/cluster/bucket-tour-slow/seed1":            {"85030d9e72993f46", "9bef888ece083121"},
	"run/cluster/bucket-tour-slow/seed2":            {"9b106341bf0c962c", "be75d0c5f07c851a"},
	"run/cluster/bucket-tour-slow/seed3":            {"974e399539e5c2b5", "cea3a372af678526"},
	"run/cluster/bucket-tour/seed1":                 {"95fc0c3cb04c4cdc", "51d22b65b9251482"},
	"run/cluster/bucket-tour/seed2":                 {"eb1bf54a7e8515dd", "9db8503cca05ef4a"},
	"run/cluster/bucket-tour/seed3":                 {"a049f2d05b972c79", "16cb8532ee1a9b40"},
	"run/cluster/coordinator/seed1":                 {"4e2f16cf8a4e3976", "7d2b34d88053ef34"},
	"run/cluster/coordinator/seed2":                 {"1f973ba2ad46532d", "19d022c59d3d9d92"},
	"run/cluster/coordinator/seed3":                 {"745ec9345b67d2b3", "74eeed73c899f21c"},
	"run/cluster/distributed/seed1":                 {"8b50c5448a4b3495", "a3a920f3aa42d6d3"},
	"run/cluster/distributed/seed2":                 {"f4d6a91903e52323", "85b9e85dc2b8ce71"},
	"run/cluster/distributed/seed3":                 {"6b17e99e75f2f03a", "606964eb6533f5af"},
	"run/cluster/greedy-linkcap/seed1":              {"8ebf8f01f8118a5f", "eae8fb58227a9e58"},
	"run/cluster/greedy-linkcap/seed2":              {"c026d01e6db3fc6f", "1b6e7dc6b4d164dc"},
	"run/cluster/greedy-linkcap/seed3":              {"3459078875d07a96", "f82d40d9fbae7c99"},
	"run/cluster/greedy-pad2/seed1":                 {"fd07e112e92d2791", "f8ac43bc3bdfc3c3"},
	"run/cluster/greedy-pad2/seed2":                 {"d01a3c40dfca8f57", "a6060e4f14346c12"},
	"run/cluster/greedy-pad2/seed3":                 {"6f1bc9f4926aea30", "0771b3a1987e6e42"},
	"run/cluster/greedy-slow/seed1":                 {"ff2873a816da2629", "ad28fecb0616a423"},
	"run/cluster/greedy-slow/seed2":                 {"a2193021ef0e284d", "6c0114547d1496ec"},
	"run/cluster/greedy-slow/seed3":                 {"d2d6439f696cc0ce", "0771b3a1987e6e42"},
	"run/cluster/greedy-uniform/seed1":              {"71eaa6a950bc6299", "f977fb11010b2c48"},
	"run/cluster/greedy-uniform/seed2":              {"e3b724d26e389193", "9caa06299bfa0c39"},
	"run/cluster/greedy-uniform/seed3":              {"e45d2fb9586dd5d9", "2d7879ff9b8067ee"},
	"run/cluster/greedy/seed1":                      {"85cece63c48cd7c2", "56e04f5ffc2acf84"},
	"run/cluster/greedy/seed2":                      {"f44ac09759398a79", "739065b0fd858897"},
	"run/cluster/greedy/seed3":                      {"4af4f4f327a73866", "3c371ce8f617c700"},
	"run/cluster/window/seed1":                      {"29ab047b6c5c691c", "1137df79e618ac44"},
	"run/cluster/window/seed2":                      {"0fbb239f05ac618d", "36c9200cf175b5d4"},
	"run/cluster/window/seed3":                      {"5a1976099816b2ab", "40e9cb19e89a9359"},
	"run/grid/bucket-coloring/seed1":                {"afd725f9fbd231ee", "4a1dda1b9d168bd7"},
	"run/grid/bucket-coloring/seed2":                {"371b03f01f46efb8", "ab9daeea2011c081"},
	"run/grid/bucket-coloring/seed3":                {"71194361819563ea", "2ab58396f3a8e83e"},
	"run/grid/bucket-list/seed1":                    {"f2c29a78e954e3ca", "5d7837079fa250d4"},
	"run/grid/bucket-list/seed2":                    {"6573c5277f694fb2", "f0e1e6da76914a40"},
	"run/grid/bucket-list/seed3":                    {"26c558563d98d2a9", "39d0923f058097c1"},
	"run/grid/bucket-random-suffix/seed1":           {"a793e283ccd4bfc2", "64c74e21080685d2"},
	"run/grid/bucket-random-suffix/seed2":           {"e065b1e75f676d53", "6596d85cad4dc2fb"},
	"run/grid/bucket-random-suffix/seed3":           {"5056c0a0956cd10b", "04c61146bc7da103"},
	"run/grid/bucket-tour-slow/seed1":               {"f0bae88f46e0ccda", "c585bf7ecf54feac"},
	"run/grid/bucket-tour-slow/seed2":               {"b45fff467b43bfbb", "35590df09f32a028"},
	"run/grid/bucket-tour-slow/seed3":               {"7e6c52eb955e5f5e", "363af9cf9a8bdff8"},
	"run/grid/bucket-tour/seed1":                    {"cca5db0edcfcd9d7", "7275be6b720c2f52"},
	"run/grid/bucket-tour/seed2":                    {"f810c1e25959a09b", "dab2ab1c3dc3afb5"},
	"run/grid/bucket-tour/seed3":                    {"46320b854f4e4ba9", "414bc18d47416121"},
	"run/grid/coordinator/seed1":                    {"49256194ba793eb6", "a5b65128f6a7499c"},
	"run/grid/coordinator/seed2":                    {"c2ae54af77360766", "98fb39b964783734"},
	"run/grid/coordinator/seed3":                    {"a600567e6e38bbd0", "321cfc570d06bddd"},
	"run/grid/distributed/seed1":                    {"9fad1fff261fe087", "f73c34b977ff9f4d"},
	"run/grid/distributed/seed2":                    {"9795ac2a00d8f0a1", "27d828974cbf8150"},
	"run/grid/distributed/seed3":                    {"ee31519638d2d29b", "2807bcd58a2bd43c"},
	"run/grid/greedy-linkcap/seed1":                 {"e152e6238864b7ef", "ec6ee2437d9cdc23"},
	"run/grid/greedy-linkcap/seed2":                 {"57eee09968d8ec49", "be5ad53eb4f9d494"},
	"run/grid/greedy-linkcap/seed3":                 {"6b1652fd6f9fecd1", "4738e12218f92ac4"},
	"run/grid/greedy-pad2/seed1":                    {"7be3b51e51cdf64c", "d13f68d738fd8739"},
	"run/grid/greedy-pad2/seed2":                    {"799c463242c4c7f0", "e301441eb400d7f5"},
	"run/grid/greedy-pad2/seed3":                    {"2377f1fc52d25823", "6ece8d4e8863383d"},
	"run/grid/greedy-slow/seed1":                    {"502e6316d831be4e", "a04fb5933546bfa5"},
	"run/grid/greedy-slow/seed2":                    {"b420501758741103", "e301441eb400d7f5"},
	"run/grid/greedy-slow/seed3":                    {"422b1f9ce58699b9", "17a81d3f5e817790"},
	"run/grid/greedy-uniform/seed1":                 {"21bd1a49a909c439", "e2ea4813c7586a47"},
	"run/grid/greedy-uniform/seed2":                 {"c56bc1409cebbe1d", "e42d78c16875f452"},
	"run/grid/greedy-uniform/seed3":                 {"be2567101f947d0d", "65feef74b06c90a9"},
	"run/grid/greedy/seed1":                         {"ca9bbca100bf277c", "5e66dc409afa09b6"},
	"run/grid/greedy/seed2":                         {"2233560f39723bc5", "193efc5f40160ec7"},
	"run/grid/greedy/seed3":                         {"a86d83ae4fcf1f6f", "6b8e4c988842857e"},
	"run/grid/window/seed1":                         {"b24174058d7eef35", "5051f41e4580f700"},
	"run/grid/window/seed2":                         {"145595335415047e", "98de14f575ab1a2f"},
	"run/grid/window/seed3":                         {"d3d5a53516a225c1", "1cd7a28163f89617"},
	"run/line/bucket-coloring/seed1":                {"b8d20fdf6eb7d4c6", "b365d59e659c84b5"},
	"run/line/bucket-coloring/seed2":                {"b006762a6b786330", "542d4eab2dc982a7"},
	"run/line/bucket-coloring/seed3":                {"5869d669d73dec53", "32059fefbe61fb76"},
	"run/line/bucket-list/seed1":                    {"3833d61cd6df8dae", "071286688e537350"},
	"run/line/bucket-list/seed2":                    {"4867f64f8810c69a", "9ed4974960c38098"},
	"run/line/bucket-list/seed3":                    {"b01f27f86de77787", "741c04f4208caf06"},
	"run/line/bucket-random-suffix/seed1":           {"167a691a9ca41bd2", "9bdf764cfaad38d9"},
	"run/line/bucket-random-suffix/seed2":           {"4026ecbf747f00fa", "3f2c897e4c3c3ade"},
	"run/line/bucket-random-suffix/seed3":           {"1b7fd2be5abd72ee", "1763679d099708d7"},
	"run/line/bucket-tour-slow/seed1":               {"1aabd464d73f7db7", "86a50cae9b7df41f"},
	"run/line/bucket-tour-slow/seed2":               {"af962fb3a7db0cb3", "e841124fc0d311fe"},
	"run/line/bucket-tour-slow/seed3":               {"3f8f3f38b257f535", "b0e7d35be0e8273d"},
	"run/line/bucket-tour/seed1":                    {"0800d4e1cc1d1328", "732aa31a4739283a"},
	"run/line/bucket-tour/seed2":                    {"fbd91720614963ba", "f3158d856c1364ad"},
	"run/line/bucket-tour/seed3":                    {"1b960c9c8e7eb544", "540e9bada598fd45"},
	"run/line/coordinator/seed1":                    {"436b9ded52b05b0b", "f8fc799127d0097c"},
	"run/line/coordinator/seed2":                    {"d83a9fe6603e544c", "e3bf2454429bc1e1"},
	"run/line/coordinator/seed3":                    {"09a2f083edd5077f", "dfe175cbd765be60"},
	"run/line/distributed/seed1":                    {"500368e5a2c03dde", "7c5326b39d99d2ce"},
	"run/line/distributed/seed2":                    {"88347429532d2973", "f963c5519086ca2d"},
	"run/line/distributed/seed3":                    {"36309c7606f3cf80", "131feec5d16dda48"},
	"run/line/greedy-linkcap/seed1":                 {"966d1496bf00cca9", "ed0b9d4bf0a9cbac"},
	"run/line/greedy-linkcap/seed2":                 {"b74ecfbf25f0b054", "6a05068a54325490"},
	"run/line/greedy-linkcap/seed3":                 {"935113e42f91b24e", "156546c627aa49a2"},
	"run/line/greedy-pad2/seed1":                    {"d35573f0e4f7b648", "c7dc18f5bf5eb9f8"},
	"run/line/greedy-pad2/seed2":                    {"cc13888e22e2c03d", "db266875a313a082"},
	"run/line/greedy-pad2/seed3":                    {"d650a4a4ddaf5f91", "fa9b49b2dc05d2ab"},
	"run/line/greedy-slow/seed1":                    {"6cd9d4eb4c6c8c36", "4226e8d3315afa85"},
	"run/line/greedy-slow/seed2":                    {"fcd1bfd646f419ec", "8ffb8c8addc8d93b"},
	"run/line/greedy-slow/seed3":                    {"ed2cb1c3fc2ac590", "0318a243f19d4406"},
	"run/line/greedy-uniform/seed1":                 {"c23bc084102971ff", "7b23e39ae4f5a9ee"},
	"run/line/greedy-uniform/seed2":                 {"90bef96f57bc6705", "267f7c2237f598fb"},
	"run/line/greedy-uniform/seed3":                 {"b71d81bce785b05c", "54a8cf9756c7e36d"},
	"run/line/greedy/seed1":                         {"b7d31ea6814096b7", "ae2999f2a4561e66"},
	"run/line/greedy/seed2":                         {"40d617b03cc420ce", "c6c0153e0989c68c"},
	"run/line/greedy/seed3":                         {"cd4205521bc780e6", "cbd53d29a2c09a16"},
	"run/line/window/seed1":                         {"6b8d687c7dca355b", "fc2adf56f9b220e1"},
	"run/line/window/seed2":                         {"8a976f13d0430ad0", "6138196d85cee231"},
	"run/line/window/seed3":                         {"7fd91075c767a561", "4f0ffa70d213bde8"},
	"stream/cluster/bucket-coloring/bursty":         {"4c1ab6039e1d459f", "847c4fafd8258460"},
	"stream/cluster/bucket-coloring/poisson":        {"fca45902939853e6", "458e593c600b7106"},
	"stream/cluster/bucket-list/bursty":             {"0d6f34b6e6539511", "451add96aa92d4e1"},
	"stream/cluster/bucket-list/poisson":            {"e747cd77cd2a2e2d", "458e593c600b7106"},
	"stream/cluster/bucket-tour/bursty":             {"99c8ac2489744c8f", "991286d07c216dfc"},
	"stream/cluster/bucket-tour/poisson":            {"712aba6fe268877d", "1aa84be9a44be782"},
	"stream/cluster/coordinator/bursty":             {"a52477b99ae0877d", "e75cf4617bf0bc86"},
	"stream/cluster/coordinator/poisson":            {"286d5484b16766da", "9e80b6162232f715"},
	"stream/cluster/greedy-uniform/bursty":          {"933ac78c68c3e81a", "075fd14a120cc1b8"},
	"stream/cluster/greedy-uniform/poisson":         {"54a427afa2e028f0", "0086776f4d9fa827"},
	"stream/cluster/greedy/bursty":                  {"9e956ca27cf6d3c5", "4f52430e5d7de5fb"},
	"stream/cluster/greedy/poisson":                 {"224110faa71d48cc", "9d8d9bee16edcdf3"},
	"stream/cluster/window/bursty":                  {"7eb6d6c712b1984d", "bfc4d65a0cf69e6d"},
	"stream/cluster/window/poisson":                 {"9640ff215c85422e", "bc0e5a4e04d821c8"},
	"stream/grid/bucket-coloring/bursty":            {"410518c1f86b59f5", "32b71781ba7b3def"},
	"stream/grid/bucket-coloring/poisson":           {"d6b3d97ae67db01b", "109dfb8500d5d937"},
	"stream/grid/bucket-list/bursty":                {"921bf22b085500bd", "833f98dd72c4e6b1"},
	"stream/grid/bucket-list/poisson":               {"bc35e1961b421af4", "109dfb8500d5d937"},
	"stream/grid/bucket-tour/bursty":                {"ad6cfba678de740d", "c88defc3c791cb7e"},
	"stream/grid/bucket-tour/poisson":               {"193d6f705d139df6", "f29beea6cd80be86"},
	"stream/grid/coordinator/bursty":                {"53f908d8d628c2db", "949cbdef3bdf746d"},
	"stream/grid/coordinator/poisson":               {"5e84c4b55f39ec9a", "6e537838408b3fc6"},
	"stream/grid/greedy-uniform/bursty":             {"9cba096362f021f6", "7c665a31cd6078e5"},
	"stream/grid/greedy-uniform/poisson":            {"19d4c2c1c52e16a8", "c720d3fa9eabf410"},
	"stream/grid/greedy/bursty":                     {"cfd20eaa48e7349e", "e0ad5f5e85c8433b"},
	"stream/grid/greedy/poisson":                    {"f3187d15136d93bd", "9f876abe476eeff3"},
	"stream/grid/window/bursty":                     {"a9612d7e379cfebf", "d935b567b782f4b8"},
	"stream/grid/window/poisson":                    {"c26128719e5fe880", "7da1b50503ba9003"},
}
