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
//
// To see what moved a digest, dump every case's parts before and after a
// change and diff the two directories:
//
//	go test ./internal/sched -run TestDriverGoldens -golden.dump /tmp/golden-after

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
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

var goldenDump = flag.String("golden.dump", "",
	"directory to write each golden case's schedule-half and obs-half parts to, as indented JSON, one file per case")

// dumpCase writes one case's parts under *goldenDump, the case name's
// slashes turned into underscores.
func dumpCase(t *testing.T, name string, schedParts, obsParts []any) {
	t.Helper()
	b, err := json.MarshalIndent(map[string][]any{"sched": schedParts, "obs": obsParts}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(*goldenDump, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(*goldenDump, strings.ReplaceAll(name, "/", "_")+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
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
	prev, ok := g[name]
	if ok && prev != d {
		t.Errorf("%s: variant digests %v differ from %v", name, d, prev)
		return
	}
	if !ok && *goldenDump != "" {
		dumpCase(t, name, schedParts, obsParts)
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
		es = append(es, goldenEngine{d.ID, d.New, core.SimOptions{}})
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
		"greedy":         func() sched.Scheduler { return greedy.New(greedy.Options{}) },
		"greedy-rebuild": func() sched.Scheduler { return greedy.New(greedy.Options{RebuildOracle: true}) },
		"bucket-tour":    func() sched.Scheduler { return bucket.New(bucket.Options{Batch: batch.Tour{}}) },
		"bucket-tour-rebuild": func() sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.Tour{}, RebuildOracle: true})
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
			if !d.Stream {
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
					d.New(), sched.StreamOptions{Obs: rec.m, MaxArrivals: 1500})
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
						rr.Abandoned, rr.Failed, res.Abandoned,
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
	"closed-loop/clique/bucket-coloring/seed1":      {"bd8760a56ffd3854", "9bdead0457809dc0"},
	"closed-loop/clique/bucket-coloring/seed2":      {"3c4fac1985b054f7", "7652f509f8b835d6"},
	"closed-loop/clique/bucket-coloring/seed3":      {"14cc0ca4659a997d", "88911621c446645e"},
	"closed-loop/clique/bucket-tour-rebuild/seed1":  {"fab7ecaf6bb747c5", "d342c9e5aaf15a33"},
	"closed-loop/clique/bucket-tour-rebuild/seed2":  {"d98252b146ec7bb8", "036d0821d68d30d7"},
	"closed-loop/clique/bucket-tour-rebuild/seed3":  {"95b9b92e06ee891c", "70edb94442dee7df"},
	"closed-loop/clique/bucket-tour/seed1":          {"b57fb6ca43bcfb4b", "d342c9e5aaf15a33"},
	"closed-loop/clique/bucket-tour/seed2":          {"2be3a088c656adf3", "036d0821d68d30d7"},
	"closed-loop/clique/bucket-tour/seed3":          {"72198d4cf3ebb3de", "70edb94442dee7df"},
	"closed-loop/clique/coordinator/seed1":          {"71bc8289fb16c89c", "2049ee74e451a812"},
	"closed-loop/clique/coordinator/seed2":          {"eb09ae670b32fb6a", "b537e8210877744b"},
	"closed-loop/clique/coordinator/seed3":          {"677ae1b5d973e38d", "61c9297cf3e59979"},
	"closed-loop/clique/greedy-rebuild/seed1":       {"65e6109fbf8e523d", "21fbc3e2b950a258"},
	"closed-loop/clique/greedy-rebuild/seed2":       {"d4e64bcf10dc687a", "8e839227efbd9e81"},
	"closed-loop/clique/greedy-rebuild/seed3":       {"1af680a0ece6a451", "24a0e8af0f16eb5e"},
	"closed-loop/clique/greedy/seed1":               {"f73ba85c82873f3c", "21fbc3e2b950a258"},
	"closed-loop/clique/greedy/seed2":               {"b4f9b9c54568142b", "8e839227efbd9e81"},
	"closed-loop/clique/greedy/seed3":               {"0ef787a50e7e4b5c", "24a0e8af0f16eb5e"},
	"closed-loop/cluster/bucket-coloring/seed1":     {"5caf290281316ea5", "a508d143b404137d"},
	"closed-loop/cluster/bucket-coloring/seed2":     {"e5d86a3c99c581da", "54ece0f46d59ddf9"},
	"closed-loop/cluster/bucket-coloring/seed3":     {"44ef81ab942e261e", "b289e26027ee8d64"},
	"closed-loop/cluster/bucket-tour-rebuild/seed1": {"26176f1ea2b34250", "04a133a56159bd02"},
	"closed-loop/cluster/bucket-tour-rebuild/seed2": {"bf9a8cb076d036e2", "82485bd885280690"},
	"closed-loop/cluster/bucket-tour-rebuild/seed3": {"d11671d455c19dde", "b842c49b00f144f3"},
	"closed-loop/cluster/bucket-tour/seed1":         {"bdc934cfa18f1aef", "04a133a56159bd02"},
	"closed-loop/cluster/bucket-tour/seed2":         {"f2e63fe8a6107c74", "82485bd885280690"},
	"closed-loop/cluster/bucket-tour/seed3":         {"4fde5e1ce046df8e", "b842c49b00f144f3"},
	"closed-loop/cluster/coordinator/seed1":         {"0c225cd9f816b851", "6f9e72a9ea1b6ad0"},
	"closed-loop/cluster/coordinator/seed2":         {"cdc3a071f764e4d8", "e8626128cceeaf23"},
	"closed-loop/cluster/coordinator/seed3":         {"1a8db6a7d499550b", "338ed7e758b936ea"},
	"closed-loop/cluster/greedy-rebuild/seed1":      {"10a0b2272d241380", "c34ee1f4044907df"},
	"closed-loop/cluster/greedy-rebuild/seed2":      {"ab9bbe9d42ee1d4e", "af5ebf3001756e58"},
	"closed-loop/cluster/greedy-rebuild/seed3":      {"acd88e92ada7e04c", "b390087dd4a1b075"},
	"closed-loop/cluster/greedy/seed1":              {"0baef81d5205e0a0", "c34ee1f4044907df"},
	"closed-loop/cluster/greedy/seed2":              {"cf810da34fbc03d2", "af5ebf3001756e58"},
	"closed-loop/cluster/greedy/seed3":              {"199eaf4a0ba9426f", "b390087dd4a1b075"},
	"closed-loop/grid/bucket-coloring/seed1":        {"73360984ca0c869c", "44f1577421f20a85"},
	"closed-loop/grid/bucket-coloring/seed2":        {"980bc08ace633cde", "a2ec005ea25e33a4"},
	"closed-loop/grid/bucket-coloring/seed3":        {"85291cec3515960b", "78c171421360c1dd"},
	"closed-loop/grid/bucket-tour-rebuild/seed1":    {"1101b78fbf768562", "ccab8c33d0ba1b23"},
	"closed-loop/grid/bucket-tour-rebuild/seed2":    {"9efe924b4a2f50fb", "ecc97da2ad20299a"},
	"closed-loop/grid/bucket-tour-rebuild/seed3":    {"d6eb1874dee6589b", "960a325649fa7df6"},
	"closed-loop/grid/bucket-tour/seed1":            {"bf5dd845bc69d8a6", "ccab8c33d0ba1b23"},
	"closed-loop/grid/bucket-tour/seed2":            {"4d097aeb09baf60f", "ecc97da2ad20299a"},
	"closed-loop/grid/bucket-tour/seed3":            {"200deb900722d77d", "960a325649fa7df6"},
	"closed-loop/grid/coordinator/seed1":            {"c75333db0338dadf", "bc2d362e1da8a1e2"},
	"closed-loop/grid/coordinator/seed2":            {"8b4745e986d11829", "f6273a7c2648cd7a"},
	"closed-loop/grid/coordinator/seed3":            {"0d97d7deb6b16fb6", "006dfde6ceb82ed4"},
	"closed-loop/grid/greedy-rebuild/seed1":         {"016ce4b9eb03acb9", "b9f9fc6b60e475ca"},
	"closed-loop/grid/greedy-rebuild/seed2":         {"99e71f588d7db26a", "a2817967a41cb3b9"},
	"closed-loop/grid/greedy-rebuild/seed3":         {"bd206a1b89ad004d", "7d373681a8401176"},
	"closed-loop/grid/greedy/seed1":                 {"469b34db3d62729a", "b9f9fc6b60e475ca"},
	"closed-loop/grid/greedy/seed2":                 {"c62f7bafdd95e66c", "a2817967a41cb3b9"},
	"closed-loop/grid/greedy/seed3":                 {"c11cecff2bf7b548", "7d373681a8401176"},
	"closed-loop/line/bucket-coloring/seed1":        {"5b7e9f3424bf74b7", "38443976f749a683"},
	"closed-loop/line/bucket-coloring/seed2":        {"7b92eb3377207aa6", "8da9ae3cbaedcf57"},
	"closed-loop/line/bucket-coloring/seed3":        {"e0404e2f01e70335", "caea361ffd99030e"},
	"closed-loop/line/bucket-tour-rebuild/seed1":    {"75edd453a3fd16b8", "8404eb643c4c3882"},
	"closed-loop/line/bucket-tour-rebuild/seed2":    {"0f1bed157c226e6a", "31582e600d061e5d"},
	"closed-loop/line/bucket-tour-rebuild/seed3":    {"2796cd8f626b92d9", "1605c953a6d2e2ed"},
	"closed-loop/line/bucket-tour/seed1":            {"6c4755bed99dab61", "8404eb643c4c3882"},
	"closed-loop/line/bucket-tour/seed2":            {"5bc04bf920c7e0f1", "31582e600d061e5d"},
	"closed-loop/line/bucket-tour/seed3":            {"73dde9a55cf88808", "1605c953a6d2e2ed"},
	"closed-loop/line/coordinator/seed1":            {"ad30a23d21168c89", "11b1f14698991842"},
	"closed-loop/line/coordinator/seed2":            {"3dcfa5443c2cacce", "b090554780b0915d"},
	"closed-loop/line/coordinator/seed3":            {"5ada66538996d464", "212995904bffad18"},
	"closed-loop/line/greedy-rebuild/seed1":         {"2057d3d26169fa07", "852c653396025f43"},
	"closed-loop/line/greedy-rebuild/seed2":         {"63edc75ca63a3357", "e195949c157264d9"},
	"closed-loop/line/greedy-rebuild/seed3":         {"0634376858a36379", "2275c36ad21c8efc"},
	"closed-loop/line/greedy/seed1":                 {"66ffab824e371247", "852c653396025f43"},
	"closed-loop/line/greedy/seed2":                 {"219db65c9ce03f79", "e195949c157264d9"},
	"closed-loop/line/greedy/seed3":                 {"f53fd4f966fd932c", "2275c36ad21c8efc"},
	"distributed/clique/crashed/seed1":              {"1cf39a8ad5ffb146", "58f39b1294b562bc"},
	"distributed/clique/crashed/seed2":              {"40b70d5cb1aee007", "3b0860a0a4a89da7"},
	"distributed/clique/crashed/seed3":              {"f689eb070ce05c65", "4dbcdb0c8497b7ce"},
	"distributed/clique/drop40/seed1":               {"065b1a6eaf80ec52", "e32bd73f3d224a55"},
	"distributed/clique/drop40/seed2":               {"7462b8d9a3f90aec", "cf0555cba800a97e"},
	"distributed/clique/drop40/seed3":               {"15fb1e894fffc123", "e90a2cb824e66de2"},
	"distributed/clique/lossy/seed1":                {"12714017ee8d851c", "5c69a44db5d4b544"},
	"distributed/clique/lossy/seed2":                {"dcd2cb880e34ca15", "f2500d93df213cf3"},
	"distributed/clique/lossy/seed3":                {"deeae10b5ee460ed", "20fe5787677642df"},
	"distributed/clique/none/seed1":                 {"58e073a7c6505583", "44ba80e8ba4c9d75"},
	"distributed/clique/none/seed2":                 {"845db74ada91c495", "f69b494bdde995f1"},
	"distributed/clique/none/seed3":                 {"f1614c3bfefe56d4", "e09257bed825d97f"},
	"distributed/cluster/crashed/seed1":             {"61d920816036bab5", "486b64b314ef1831"},
	"distributed/cluster/crashed/seed2":             {"6aeac794705ca4eb", "2f70555b2044953e"},
	"distributed/cluster/crashed/seed3":             {"ad726a3559f73498", "2672c90fe211e488"},
	"distributed/cluster/drop40/seed1":              {"95280b5e4ce3e3d3", "c0d86e7a249df666"},
	"distributed/cluster/drop40/seed2":              {"98994707a6e5fe6b", "263dce94537c62dc"},
	"distributed/cluster/drop40/seed3":              {"a6b0d020f668f122", "1de8c944f7532a49"},
	"distributed/cluster/lossy/seed1":               {"0e643b0225b0838a", "abf4d2d962d000d0"},
	"distributed/cluster/lossy/seed2":               {"e2b64a1691649700", "d4988ff66916b1a2"},
	"distributed/cluster/lossy/seed3":               {"a6bde6fd208078bc", "584721f8722aced3"},
	"distributed/cluster/none/seed1":                {"557f298a7106849b", "09d3c7346608af5a"},
	"distributed/cluster/none/seed2":                {"6be2b105ef984bc0", "63244f8cba20ef82"},
	"distributed/cluster/none/seed3":                {"c7561751c903e72d", "6d51bcac4535377b"},
	"distributed/grid/crashed/seed1":                {"c2cb2f887b90dd78", "16062d8503ce0333"},
	"distributed/grid/crashed/seed2":                {"7c555a144e852857", "e851a635213683d0"},
	"distributed/grid/crashed/seed3":                {"5dd6a7b75dfedc8c", "de1041c6b9ff227b"},
	"distributed/grid/drop40/seed1":                 {"ce72c6e0516d9c1a", "1c4e0de55ac32929"},
	"distributed/grid/drop40/seed2":                 {"baa36963976819ea", "4ccfe3b676b0fa90"},
	"distributed/grid/drop40/seed3":                 {"3ed00dc5acb9bc15", "0f9bb19fecd89b1a"},
	"distributed/grid/lossy/seed1":                  {"ed39734f61672924", "7adb4c5690fb36f0"},
	"distributed/grid/lossy/seed2":                  {"0899d912af887394", "8cf12c4b1dfdcdbf"},
	"distributed/grid/lossy/seed3":                  {"e5de67a39b545da6", "bfe3ea334def8bb9"},
	"distributed/grid/none/seed1":                   {"a69fb51aa2eb5acd", "279d1bc95045f0f8"},
	"distributed/grid/none/seed2":                   {"c1594bb08ae7beda", "13ff516ebae0b1d6"},
	"distributed/grid/none/seed3":                   {"0f56531f2d2979ce", "085757956c43481a"},
	"distributed/line/crashed/seed1":                {"5436d14aab5cd027", "78e384eb45c7d25b"},
	"distributed/line/crashed/seed2":                {"8e07bb2928513b78", "38532020cbe0ad9d"},
	"distributed/line/crashed/seed3":                {"83ba0740ad07d57d", "40876e2f93073706"},
	"distributed/line/drop40/seed1":                 {"ad1355c0119f28e5", "6e30da4953fc76ef"},
	"distributed/line/drop40/seed2":                 {"88b9926670ab4df5", "be116d0b75831fd3"},
	"distributed/line/drop40/seed3":                 {"58bb1ea7f45a5610", "19170604fc6b0e1f"},
	"distributed/line/lossy/seed1":                  {"d4b6b9fa9ec79968", "d5c3a75f43f3a66c"},
	"distributed/line/lossy/seed2":                  {"63e1e67d44b3be56", "11874c7eba70b9af"},
	"distributed/line/lossy/seed3":                  {"a5b5cf6605361509", "1ebb13bf538022b4"},
	"distributed/line/none/seed1":                   {"1bbf83b5de44f1c5", "89d6b3634bf10274"},
	"distributed/line/none/seed2":                   {"16aa4e8399cc4c2d", "f850786c17099cd0"},
	"distributed/line/none/seed3":                   {"8eb82b5f6f0b9ef3", "654ae28c9bc709d9"},
	"run/clique/bucket-coloring/seed1":              {"7357e2094c18ccd8", "756cbae4184474a6"},
	"run/clique/bucket-coloring/seed2":              {"c804cf54af3678e9", "156f076abd771650"},
	"run/clique/bucket-coloring/seed3":              {"370c70c786b5bb1f", "0f7ebc56b1d01107"},
	"run/clique/bucket-list/seed1":                  {"8fb5ef79abb59ba3", "efd15d8f4d194b46"},
	"run/clique/bucket-list/seed2":                  {"b30ad813c12083bf", "1075b84986d8bb49"},
	"run/clique/bucket-list/seed3":                  {"8b9265464fbf55d7", "0f7ebc56b1d01107"},
	"run/clique/bucket-random-suffix/seed1":         {"9f483fc7b38cea12", "889e3d595dfd7dbb"},
	"run/clique/bucket-random-suffix/seed2":         {"07ce03f9e71b8d88", "bea26b305297897a"},
	"run/clique/bucket-random-suffix/seed3":         {"c10034cae752276c", "680dcfacad80eeb1"},
	"run/clique/bucket-tour-slow/seed1":             {"7a468e86208e8802", "efedb14ea850e1b5"},
	"run/clique/bucket-tour-slow/seed2":             {"1e3a7f399d566bdb", "c84963d89653cc20"},
	"run/clique/bucket-tour-slow/seed3":             {"99ae64dafccd7969", "99a34f28fa02968f"},
	"run/clique/bucket-tour/seed1":                  {"356939ab0764010e", "ab78d8980cbc17bc"},
	"run/clique/bucket-tour/seed2":                  {"541dd54e39302b97", "a046ddaed658e4f7"},
	"run/clique/bucket-tour/seed3":                  {"d844ad42262980f2", "a45cb03674420206"},
	"run/clique/coordinator/seed1":                  {"05c44b5bfb9c3780", "c65a9b906d785670"},
	"run/clique/coordinator/seed2":                  {"1249739523ff220f", "e05c0ccac899a9ed"},
	"run/clique/coordinator/seed3":                  {"8882317bd1052915", "6585e1bff94e5385"},
	"run/clique/distributed/seed1":                  {"a28b6e7489273d15", "b2079028339d5967"},
	"run/clique/distributed/seed2":                  {"3b141e219613c1e9", "0b244f9c9d2f0ef6"},
	"run/clique/distributed/seed3":                  {"f7b9eafd42f3b37a", "d8a846447ef4798e"},
	"run/clique/greedy-linkcap/seed1":               {"b067bd1dfaf31703", "8a50e767c118cdec"},
	"run/clique/greedy-linkcap/seed2":               {"a6db84c84d75db08", "5cbe687bf3e5660d"},
	"run/clique/greedy-linkcap/seed3":               {"b7ebcd6e5e428f09", "346df0ff65242cb6"},
	"run/clique/greedy-pad2/seed1":                  {"0c3ed422519b0532", "ee05cd2ab85e9879"},
	"run/clique/greedy-pad2/seed2":                  {"723d148eda0ec3b3", "b7468403ec0334d8"},
	"run/clique/greedy-pad2/seed3":                  {"75d7445a89bff4ed", "6cf83b780a891c9b"},
	"run/clique/greedy-slow/seed1":                  {"ab2c7241290cf12c", "ee05cd2ab85e9879"},
	"run/clique/greedy-slow/seed2":                  {"f74e0b27216d1c53", "80a2b2137e507dd0"},
	"run/clique/greedy-slow/seed3":                  {"f54c17c0fa916927", "6cf83b780a891c9b"},
	"run/clique/greedy-uniform/seed1":               {"29b3bd045f5ed6e6", "b699b4976755fa69"},
	"run/clique/greedy-uniform/seed2":               {"e810c141f2577290", "411dc35f88c62409"},
	"run/clique/greedy-uniform/seed3":               {"95e8a3b96a243cf9", "741a59d3b863d78c"},
	"run/clique/greedy/seed1":                       {"6699c8bd4c49a4f7", "d7b2c0a61cb482a2"},
	"run/clique/greedy/seed2":                       {"1559643cc3536f9c", "a2b960a4192b4b18"},
	"run/clique/greedy/seed3":                       {"76eae6af4baad451", "7e9c1d48cc237d85"},
	"run/clique/window/seed1":                       {"59dbb43ef4cec75b", "5704b2a7eec84348"},
	"run/clique/window/seed2":                       {"a8c5c5134ba20e26", "ff3bd2c68bc7ff7d"},
	"run/clique/window/seed3":                       {"84f98106ce464816", "f32a1a87b7cf94c4"},
	"run/cluster/bucket-coloring/seed1":             {"128f3e63df3915a6", "e56ed88a4cd62fad"},
	"run/cluster/bucket-coloring/seed2":             {"ac3a5d7d551784f1", "3594a900d43a224f"},
	"run/cluster/bucket-coloring/seed3":             {"aa281e80b6ea88ec", "a63484c443748a1f"},
	"run/cluster/bucket-list/seed1":                 {"3e7def99fb122bd5", "e72587345bbf5b83"},
	"run/cluster/bucket-list/seed2":                 {"0b2ef1654d945947", "9e681a22b2abc08d"},
	"run/cluster/bucket-list/seed3":                 {"cc6983d50c45789e", "09b29177ed9147f4"},
	"run/cluster/bucket-random-suffix/seed1":        {"2fa775b3106c2616", "7942a0f1b4582fe9"},
	"run/cluster/bucket-random-suffix/seed2":        {"574ec88bd1659394", "0d51056ef412d14d"},
	"run/cluster/bucket-random-suffix/seed3":        {"80ba9f2da3561c42", "76426aefa3e819ed"},
	"run/cluster/bucket-tour-slow/seed1":            {"4fc230e47fac7c6c", "2ff6f0bfa604b2e3"},
	"run/cluster/bucket-tour-slow/seed2":            {"b2114ed0c6945320", "6f18e2d95be50636"},
	"run/cluster/bucket-tour-slow/seed3":            {"46564ded8f4a8b1e", "3f197b977bed80fb"},
	"run/cluster/bucket-tour/seed1":                 {"590bd68ba891567d", "70d7882d30c9d76a"},
	"run/cluster/bucket-tour/seed2":                 {"2f96e2b777d9203f", "007a4c9c0a1bc91c"},
	"run/cluster/bucket-tour/seed3":                 {"a8441b3234135e32", "0ab9046d90a11cd9"},
	"run/cluster/coordinator/seed1":                 {"a53209b051157124", "ff90723444188526"},
	"run/cluster/coordinator/seed2":                 {"8b2c7abfe0523361", "27ec9ae8a7a69de0"},
	"run/cluster/coordinator/seed3":                 {"1030b7a5a69d20ac", "8f06908e9409b23c"},
	"run/cluster/distributed/seed1":                 {"99278dba2cb5be33", "a6813bc4e12fed5d"},
	"run/cluster/distributed/seed2":                 {"0cbf19cbd584f731", "ae2578f6d96813ca"},
	"run/cluster/distributed/seed3":                 {"88240155995a7d29", "10f719b435ba290b"},
	"run/cluster/greedy-linkcap/seed1":              {"75463bb3ff4db25d", "5252bcb0523399d3"},
	"run/cluster/greedy-linkcap/seed2":              {"3c3e256c8171bf2c", "3676297921621dab"},
	"run/cluster/greedy-linkcap/seed3":              {"e8127a59f942f172", "273533d3194be027"},
	"run/cluster/greedy-pad2/seed1":                 {"c2431e3d6c27a2c2", "e2005efaa133e1b9"},
	"run/cluster/greedy-pad2/seed2":                 {"02b89a0058595555", "b44fd48725e61371"},
	"run/cluster/greedy-pad2/seed3":                 {"14132727589902f5", "3a44324af51c7a1b"},
	"run/cluster/greedy-slow/seed1":                 {"4555674c148d7a49", "9fda55c712cd1c9c"},
	"run/cluster/greedy-slow/seed2":                 {"e58c8307ad823703", "6d6fdd38ed75f968"},
	"run/cluster/greedy-slow/seed3":                 {"c1ebcde8fcc142e6", "3a44324af51c7a1b"},
	"run/cluster/greedy-uniform/seed1":              {"959877f90d7798b9", "7837d8fba36e47a4"},
	"run/cluster/greedy-uniform/seed2":              {"b9e52119e642b5b4", "ca3638e5f07e2c5a"},
	"run/cluster/greedy-uniform/seed3":              {"eaec93f510849076", "656cfc428f738fd7"},
	"run/cluster/greedy/seed1":                      {"3841a45f17dbd422", "ff8f5783718f717e"},
	"run/cluster/greedy/seed2":                      {"ce2980dc06192f59", "52d5a198fcf8a5a6"},
	"run/cluster/greedy/seed3":                      {"ba690dd6fa1600cf", "6f74ecd780cd3504"},
	"run/cluster/window/seed1":                      {"29ab047b6c5c691c", "0859fae2fe7669ea"},
	"run/cluster/window/seed2":                      {"0fbb239f05ac618d", "1a111b5695ecea7b"},
	"run/cluster/window/seed3":                      {"5a1976099816b2ab", "89246d938da77af2"},
	"run/grid/bucket-coloring/seed1":                {"3aab72075dbbae38", "e9a2c226ef34d968"},
	"run/grid/bucket-coloring/seed2":                {"ed9514ccdd7406c4", "fbb652448c1f92f8"},
	"run/grid/bucket-coloring/seed3":                {"7d8ef52254c3e32e", "6ae7fe3ebed8f3ad"},
	"run/grid/bucket-list/seed1":                    {"0b0949fdde3e75d5", "79821198d53f44a2"},
	"run/grid/bucket-list/seed2":                    {"aed6c238f42d4816", "75c462431bf7eef2"},
	"run/grid/bucket-list/seed3":                    {"d95112fe1ab797b2", "bcd7e80a5d66a091"},
	"run/grid/bucket-random-suffix/seed1":           {"7b1fd763d0a8d535", "7d9faac00ef0c17c"},
	"run/grid/bucket-random-suffix/seed2":           {"2b4088e1f164b752", "2f442fa201cbe65c"},
	"run/grid/bucket-random-suffix/seed3":           {"af86e511aa066354", "c5516ce17c25231f"},
	"run/grid/bucket-tour-slow/seed1":               {"114c02b4195a98b8", "c185730aa91b8bba"},
	"run/grid/bucket-tour-slow/seed2":               {"c4b482602a25315e", "5c574035db6e388c"},
	"run/grid/bucket-tour-slow/seed3":               {"d6c3d56203731742", "08389a808ff4dd99"},
	"run/grid/bucket-tour/seed1":                    {"62f115a37d350b47", "2ed60e1db881ed97"},
	"run/grid/bucket-tour/seed2":                    {"103b766f77895d56", "a7b8fe6b1a51d0bc"},
	"run/grid/bucket-tour/seed3":                    {"616a2795757e013d", "a9b509438f4a2e0f"},
	"run/grid/coordinator/seed1":                    {"ee793361224855d4", "454e32741e0ded32"},
	"run/grid/coordinator/seed2":                    {"3b284174515188a4", "964f29a97b9d3ba2"},
	"run/grid/coordinator/seed3":                    {"c97cfc0a51a1034a", "c18296064a424157"},
	"run/grid/distributed/seed1":                    {"dce0d5cc07724ce4", "83d26adb122a078a"},
	"run/grid/distributed/seed2":                    {"cf7ac66f907106ff", "d8f55f3a75903f97"},
	"run/grid/distributed/seed3":                    {"5a7e161382ea7f99", "48dd17bce19ffc4d"},
	"run/grid/greedy-linkcap/seed1":                 {"50774c1bf2b45ae3", "e08df170a1abe745"},
	"run/grid/greedy-linkcap/seed2":                 {"c7f96d97c2e4d014", "9c175efb134d0a23"},
	"run/grid/greedy-linkcap/seed3":                 {"fc1e8170351bd7e1", "02f90e1058568089"},
	"run/grid/greedy-pad2/seed1":                    {"e5ac200f3a9420a8", "76610ac269d992f2"},
	"run/grid/greedy-pad2/seed2":                    {"ac28094fa7f48673", "c38e727e5325d26f"},
	"run/grid/greedy-pad2/seed3":                    {"f1949d2de27fb427", "f42edbdbd5112466"},
	"run/grid/greedy-slow/seed1":                    {"a9578f518b92a1bc", "ad03ccbb5e0e2265"},
	"run/grid/greedy-slow/seed2":                    {"191bfeefffa134c9", "c38e727e5325d26f"},
	"run/grid/greedy-slow/seed3":                    {"8c6ac914f5d7f299", "d84595005531203c"},
	"run/grid/greedy-uniform/seed1":                 {"fd9ab3cd24eba5c0", "058d9b1aa1138bd6"},
	"run/grid/greedy-uniform/seed2":                 {"e8f27cc4e2501551", "92cf58d1d02de6a1"},
	"run/grid/greedy-uniform/seed3":                 {"1fe8efa118270409", "ca5b38cca60300ed"},
	"run/grid/greedy/seed1":                         {"70a5d98e7e7a6fde", "e3548dbc23f03a5f"},
	"run/grid/greedy/seed2":                         {"a81c5bc5054e6e3d", "db7c5034d385fd38"},
	"run/grid/greedy/seed3":                         {"f9ab4edd93d32f39", "236689a0d7e08334"},
	"run/grid/window/seed1":                         {"b24174058d7eef35", "afe46981810db164"},
	"run/grid/window/seed2":                         {"145595335415047e", "400fe846eba61567"},
	"run/grid/window/seed3":                         {"d3d5a53516a225c1", "763263530cd49e16"},
	"run/line/bucket-coloring/seed1":                {"a791d54514039aef", "e55866410a5f04f4"},
	"run/line/bucket-coloring/seed2":                {"38142c69341e395e", "df14b52c3ae81d74"},
	"run/line/bucket-coloring/seed3":                {"79440cff5e1e2f31", "529e93091bf070d9"},
	"run/line/bucket-list/seed1":                    {"6f1fdd840895ad61", "f756de2ac513f48d"},
	"run/line/bucket-list/seed2":                    {"f2e9e566ead256f5", "71a6d5ece4313a78"},
	"run/line/bucket-list/seed3":                    {"b5f281d31fae1522", "14956b78d9de50a4"},
	"run/line/bucket-random-suffix/seed1":           {"998f9bd612605688", "14e03f902499032c"},
	"run/line/bucket-random-suffix/seed2":           {"57f4b07efbd49b65", "e68d5bc15eb25f02"},
	"run/line/bucket-random-suffix/seed3":           {"7dc0be646872daca", "92ff58e430a8e288"},
	"run/line/bucket-tour-slow/seed1":               {"0e4263ab93b72bcb", "7e25e52de972c99d"},
	"run/line/bucket-tour-slow/seed2":               {"42963106451a803b", "bbbef7592752af82"},
	"run/line/bucket-tour-slow/seed3":               {"0b8f1e7540fdf410", "59c7bc0f395711df"},
	"run/line/bucket-tour/seed1":                    {"7cf66319a3776a03", "cb4c55585ccff3ce"},
	"run/line/bucket-tour/seed2":                    {"dabd94a8d3206cf4", "33fda1f20d0cd6b1"},
	"run/line/bucket-tour/seed3":                    {"ae50c50b2ac6c07b", "69202d9c490a0112"},
	"run/line/coordinator/seed1":                    {"6a2ea7c5c18207b4", "f883bfcb8cbbfb37"},
	"run/line/coordinator/seed2":                    {"5283476741cf7d5f", "96e81e1e9a725702"},
	"run/line/coordinator/seed3":                    {"3d924a1b502a539a", "d20b6194efaefab2"},
	"run/line/distributed/seed1":                    {"fff93bb388e2be44", "87b4c0321dd1ff39"},
	"run/line/distributed/seed2":                    {"5f6ee510a670dc33", "8ea6eb534e1a1871"},
	"run/line/distributed/seed3":                    {"3bb729358a5d0ac0", "1999dc249fd919e5"},
	"run/line/greedy-linkcap/seed1":                 {"acd889ad0c5b6149", "6fc27543c82aa396"},
	"run/line/greedy-linkcap/seed2":                 {"2e89f78504d25438", "84fe90940c97bac3"},
	"run/line/greedy-linkcap/seed3":                 {"8698e33a8958ef29", "5473f72a9ad95293"},
	"run/line/greedy-pad2/seed1":                    {"7748a79bcafad095", "8f062d1107aafa53"},
	"run/line/greedy-pad2/seed2":                    {"a1e37956f5e9ff41", "33c98f641e640ad2"},
	"run/line/greedy-pad2/seed3":                    {"702ad87d525653aa", "f586a2f91706a3ad"},
	"run/line/greedy-slow/seed1":                    {"2f5a3b0797055755", "e761f0da0a69a883"},
	"run/line/greedy-slow/seed2":                    {"cfd428b852e4950d", "f6d07cccfaf61e1a"},
	"run/line/greedy-slow/seed3":                    {"443667784e6ed8d2", "48d7b1e84463783e"},
	"run/line/greedy-uniform/seed1":                 {"105a984bda7ec414", "84daa9456d8d7e76"},
	"run/line/greedy-uniform/seed2":                 {"f48280b47533e220", "76645d46da7884b5"},
	"run/line/greedy-uniform/seed3":                 {"675a7b9d618ea756", "6fd6815a1cd1ce8c"},
	"run/line/greedy/seed1":                         {"a31f3b7c98ad8d87", "649cb95baf486e24"},
	"run/line/greedy/seed2":                         {"7964c47aec267dcb", "bb272c394f5231f2"},
	"run/line/greedy/seed3":                         {"baee45b78ce4b0de", "8614ccebfa23c3f7"},
	"run/line/window/seed1":                         {"6b8d687c7dca355b", "dcc38fc2f26c50e7"},
	"run/line/window/seed2":                         {"8a976f13d0430ad0", "e363e8a731e01751"},
	"run/line/window/seed3":                         {"7fd91075c767a561", "8f822b209664a117"},
	"stream/cluster/bucket-coloring/bursty":         {"9001fcc1f248a4b3", "2d732a57fd654b7c"},
	"stream/cluster/bucket-coloring/poisson":        {"40b3dcb969731e08", "c3d6ea788bea5a20"},
	"stream/cluster/bucket-list/bursty":             {"5838241c4723fe1a", "04934b789ef24140"},
	"stream/cluster/bucket-list/poisson":            {"0c20ef7b2cb8fb89", "c3d6ea788bea5a20"},
	"stream/cluster/bucket-tour/bursty":             {"c1b209905a162a9f", "b721f96df1c211fa"},
	"stream/cluster/bucket-tour/poisson":            {"f8f19d1056bc4e08", "8a10978f7dd35a83"},
	"stream/cluster/coordinator/bursty":             {"394d4c3fb1ff66d1", "82becccecb869e43"},
	"stream/cluster/coordinator/poisson":            {"abb36ae5cdb4821e", "2a2f5aac20480485"},
	"stream/cluster/greedy-uniform/bursty":          {"47bc4bae326dfceb", "f7c61fd1eb755d3f"},
	"stream/cluster/greedy-uniform/poisson":         {"7c23a7adb7d7801f", "20f55358953d2e28"},
	"stream/cluster/greedy/bursty":                  {"6d289d968e47f1ca", "a794be465e3a981d"},
	"stream/cluster/greedy/poisson":                 {"c53e9694a5fd56a7", "d138239e41c13811"},
	"stream/cluster/window/bursty":                  {"7eb6d6c712b1984d", "04cef61c58a1980c"},
	"stream/cluster/window/poisson":                 {"9640ff215c85422e", "37fdc4fb8a7ae611"},
	"stream/grid/bucket-coloring/bursty":            {"688e1aba6b2eaa22", "45e0065df4110948"},
	"stream/grid/bucket-coloring/poisson":           {"e143f7e2560a8456", "977db6e825dbae3d"},
	"stream/grid/bucket-list/bursty":                {"eae0cd4f201b6d58", "c6ad1252971b2fca"},
	"stream/grid/bucket-list/poisson":               {"0326a0dba4daacbd", "977db6e825dbae3d"},
	"stream/grid/bucket-tour/bursty":                {"c1162e4f0647c275", "4622099b7adb7328"},
	"stream/grid/bucket-tour/poisson":               {"1cc87d847557fd96", "6788318974ec377f"},
	"stream/grid/coordinator/bursty":                {"f1c1ac84f5f44fc5", "e91fe868d1df7e0d"},
	"stream/grid/coordinator/poisson":               {"59005d18b65e31fd", "608a697426a50834"},
	"stream/grid/greedy-uniform/bursty":             {"a5a1fc0124d404ec", "9d815e23d2ed8afe"},
	"stream/grid/greedy-uniform/poisson":            {"4addd294ab0ce9bf", "f9aac521a783f471"},
	"stream/grid/greedy/bursty":                     {"fb764cf7b0f8ae82", "82027e3d618028ec"},
	"stream/grid/greedy/poisson":                    {"a4e8b0fd8a064f35", "f277d3ac69525e8b"},
	"stream/grid/window/bursty":                     {"a9612d7e379cfebf", "1c854552e824634f"},
	"stream/grid/window/poisson":                    {"c26128719e5fe880", "5ddef09f35f58c43"},
}
