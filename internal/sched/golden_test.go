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
	"closed-loop/clique/bucket-coloring/seed1":      {"9d47d89149a3b732", "9bdead0457809dc0"},
	"closed-loop/clique/bucket-coloring/seed2":      {"f6193430cbee27b2", "7652f509f8b835d6"},
	"closed-loop/clique/bucket-coloring/seed3":      {"9df36b8222920b21", "88911621c446645e"},
	"closed-loop/clique/bucket-tour-rebuild/seed1":  {"fab7ecaf6bb747c5", "d342c9e5aaf15a33"},
	"closed-loop/clique/bucket-tour-rebuild/seed2":  {"d98252b146ec7bb8", "036d0821d68d30d7"},
	"closed-loop/clique/bucket-tour-rebuild/seed3":  {"95b9b92e06ee891c", "70edb94442dee7df"},
	"closed-loop/clique/bucket-tour/seed1":          {"36c80a1fda783442", "d342c9e5aaf15a33"},
	"closed-loop/clique/bucket-tour/seed2":          {"5a18277a50e3bbb8", "036d0821d68d30d7"},
	"closed-loop/clique/bucket-tour/seed3":          {"0b7f4bfeda0b3a0f", "70edb94442dee7df"},
	"closed-loop/clique/coordinator/seed1":          {"71bc8289fb16c89c", "2049ee74e451a812"},
	"closed-loop/clique/coordinator/seed2":          {"eb09ae670b32fb6a", "b537e8210877744b"},
	"closed-loop/clique/coordinator/seed3":          {"677ae1b5d973e38d", "61c9297cf3e59979"},
	"closed-loop/clique/greedy-rebuild/seed1":       {"65e6109fbf8e523d", "21fbc3e2b950a258"},
	"closed-loop/clique/greedy-rebuild/seed2":       {"d4e64bcf10dc687a", "8e839227efbd9e81"},
	"closed-loop/clique/greedy-rebuild/seed3":       {"1af680a0ece6a451", "24a0e8af0f16eb5e"},
	"closed-loop/clique/greedy/seed1":               {"f73ba85c82873f3c", "21fbc3e2b950a258"},
	"closed-loop/clique/greedy/seed2":               {"b4f9b9c54568142b", "8e839227efbd9e81"},
	"closed-loop/clique/greedy/seed3":               {"0ef787a50e7e4b5c", "24a0e8af0f16eb5e"},
	"closed-loop/cluster/bucket-coloring/seed1":     {"9ec7f739be1ddfff", "a508d143b404137d"},
	"closed-loop/cluster/bucket-coloring/seed2":     {"06d663eb9ac19899", "54ece0f46d59ddf9"},
	"closed-loop/cluster/bucket-coloring/seed3":     {"96c8ac07965b0d38", "b289e26027ee8d64"},
	"closed-loop/cluster/bucket-tour-rebuild/seed1": {"26176f1ea2b34250", "04a133a56159bd02"},
	"closed-loop/cluster/bucket-tour-rebuild/seed2": {"bf9a8cb076d036e2", "82485bd885280690"},
	"closed-loop/cluster/bucket-tour-rebuild/seed3": {"d11671d455c19dde", "b842c49b00f144f3"},
	"closed-loop/cluster/bucket-tour/seed1":         {"a14ad8863c60fc29", "04a133a56159bd02"},
	"closed-loop/cluster/bucket-tour/seed2":         {"5b0bd0423cfc13b8", "82485bd885280690"},
	"closed-loop/cluster/bucket-tour/seed3":         {"65381a440ae4a45f", "b842c49b00f144f3"},
	"closed-loop/cluster/coordinator/seed1":         {"0c225cd9f816b851", "6f9e72a9ea1b6ad0"},
	"closed-loop/cluster/coordinator/seed2":         {"cdc3a071f764e4d8", "e8626128cceeaf23"},
	"closed-loop/cluster/coordinator/seed3":         {"1a8db6a7d499550b", "338ed7e758b936ea"},
	"closed-loop/cluster/greedy-rebuild/seed1":      {"10a0b2272d241380", "c34ee1f4044907df"},
	"closed-loop/cluster/greedy-rebuild/seed2":      {"ab9bbe9d42ee1d4e", "af5ebf3001756e58"},
	"closed-loop/cluster/greedy-rebuild/seed3":      {"acd88e92ada7e04c", "b390087dd4a1b075"},
	"closed-loop/cluster/greedy/seed1":              {"0baef81d5205e0a0", "c34ee1f4044907df"},
	"closed-loop/cluster/greedy/seed2":              {"cf810da34fbc03d2", "af5ebf3001756e58"},
	"closed-loop/cluster/greedy/seed3":              {"199eaf4a0ba9426f", "b390087dd4a1b075"},
	"closed-loop/grid/bucket-coloring/seed1":        {"3f10284ebdcee6ee", "44f1577421f20a85"},
	"closed-loop/grid/bucket-coloring/seed2":        {"937a671dbe31a76a", "a2ec005ea25e33a4"},
	"closed-loop/grid/bucket-coloring/seed3":        {"a76762f5cb1ff054", "78c171421360c1dd"},
	"closed-loop/grid/bucket-tour-rebuild/seed1":    {"1101b78fbf768562", "ccab8c33d0ba1b23"},
	"closed-loop/grid/bucket-tour-rebuild/seed2":    {"9efe924b4a2f50fb", "ecc97da2ad20299a"},
	"closed-loop/grid/bucket-tour-rebuild/seed3":    {"d6eb1874dee6589b", "960a325649fa7df6"},
	"closed-loop/grid/bucket-tour/seed1":            {"8acb6f151bf1758d", "ccab8c33d0ba1b23"},
	"closed-loop/grid/bucket-tour/seed2":            {"2960ca8ebaf1dce9", "ecc97da2ad20299a"},
	"closed-loop/grid/bucket-tour/seed3":            {"1a535a64dfa01b36", "960a325649fa7df6"},
	"closed-loop/grid/coordinator/seed1":            {"c75333db0338dadf", "bc2d362e1da8a1e2"},
	"closed-loop/grid/coordinator/seed2":            {"8b4745e986d11829", "f6273a7c2648cd7a"},
	"closed-loop/grid/coordinator/seed3":            {"0d97d7deb6b16fb6", "006dfde6ceb82ed4"},
	"closed-loop/grid/greedy-rebuild/seed1":         {"016ce4b9eb03acb9", "b9f9fc6b60e475ca"},
	"closed-loop/grid/greedy-rebuild/seed2":         {"99e71f588d7db26a", "a2817967a41cb3b9"},
	"closed-loop/grid/greedy-rebuild/seed3":         {"bd206a1b89ad004d", "7d373681a8401176"},
	"closed-loop/grid/greedy/seed1":                 {"469b34db3d62729a", "b9f9fc6b60e475ca"},
	"closed-loop/grid/greedy/seed2":                 {"c62f7bafdd95e66c", "a2817967a41cb3b9"},
	"closed-loop/grid/greedy/seed3":                 {"c11cecff2bf7b548", "7d373681a8401176"},
	"closed-loop/line/bucket-coloring/seed1":        {"c6a6a7f48cbd9010", "38443976f749a683"},
	"closed-loop/line/bucket-coloring/seed2":        {"0157b67f73a3ea6f", "8da9ae3cbaedcf57"},
	"closed-loop/line/bucket-coloring/seed3":        {"504f350802c93257", "caea361ffd99030e"},
	"closed-loop/line/bucket-tour-rebuild/seed1":    {"75edd453a3fd16b8", "8404eb643c4c3882"},
	"closed-loop/line/bucket-tour-rebuild/seed2":    {"0f1bed157c226e6a", "31582e600d061e5d"},
	"closed-loop/line/bucket-tour-rebuild/seed3":    {"2796cd8f626b92d9", "1605c953a6d2e2ed"},
	"closed-loop/line/bucket-tour/seed1":            {"0232a0bc931e5983", "8404eb643c4c3882"},
	"closed-loop/line/bucket-tour/seed2":            {"77257c24badd4bd0", "31582e600d061e5d"},
	"closed-loop/line/bucket-tour/seed3":            {"d4812c8721df4eee", "1605c953a6d2e2ed"},
	"closed-loop/line/coordinator/seed1":            {"ad30a23d21168c89", "11b1f14698991842"},
	"closed-loop/line/coordinator/seed2":            {"3dcfa5443c2cacce", "b090554780b0915d"},
	"closed-loop/line/coordinator/seed3":            {"5ada66538996d464", "212995904bffad18"},
	"closed-loop/line/greedy-rebuild/seed1":         {"2057d3d26169fa07", "852c653396025f43"},
	"closed-loop/line/greedy-rebuild/seed2":         {"63edc75ca63a3357", "e195949c157264d9"},
	"closed-loop/line/greedy-rebuild/seed3":         {"0634376858a36379", "2275c36ad21c8efc"},
	"closed-loop/line/greedy/seed1":                 {"66ffab824e371247", "852c653396025f43"},
	"closed-loop/line/greedy/seed2":                 {"219db65c9ce03f79", "e195949c157264d9"},
	"closed-loop/line/greedy/seed3":                 {"f53fd4f966fd932c", "2275c36ad21c8efc"},
	"distributed/clique/crashed/seed1":              {"3c5a90ffc0ee5508", "58f39b1294b562bc"},
	"distributed/clique/crashed/seed2":              {"bb6b62715305338e", "3b0860a0a4a89da7"},
	"distributed/clique/crashed/seed3":              {"ed1908501e79583b", "4dbcdb0c8497b7ce"},
	"distributed/clique/drop40/seed1":               {"f85b789f63020585", "e32bd73f3d224a55"},
	"distributed/clique/drop40/seed2":               {"c811c4a1e203b960", "cf0555cba800a97e"},
	"distributed/clique/drop40/seed3":               {"a1c1d3d6a52a5716", "e90a2cb824e66de2"},
	"distributed/clique/lossy/seed1":                {"7c548b32ef1474cd", "5c69a44db5d4b544"},
	"distributed/clique/lossy/seed2":                {"80a9069e67dafc7c", "f2500d93df213cf3"},
	"distributed/clique/lossy/seed3":                {"e2a7ec0d02f846fa", "20fe5787677642df"},
	"distributed/clique/none/seed1":                 {"a66e296b5b638925", "44ba80e8ba4c9d75"},
	"distributed/clique/none/seed2":                 {"1879ddf3bb024045", "f69b494bdde995f1"},
	"distributed/clique/none/seed3":                 {"942a009350a302e3", "e09257bed825d97f"},
	"distributed/cluster/crashed/seed1":             {"b0cf8f0b37ad52fc", "486b64b314ef1831"},
	"distributed/cluster/crashed/seed2":             {"2c76ade1f704009a", "2f70555b2044953e"},
	"distributed/cluster/crashed/seed3":             {"43124b9d20d7ca70", "2672c90fe211e488"},
	"distributed/cluster/drop40/seed1":              {"9615eb5bb8692bc4", "c0d86e7a249df666"},
	"distributed/cluster/drop40/seed2":              {"c316e555e70d5eb7", "263dce94537c62dc"},
	"distributed/cluster/drop40/seed3":              {"56bb49f5ea1f6e10", "1de8c944f7532a49"},
	"distributed/cluster/lossy/seed1":               {"0af4b290967f1d64", "abf4d2d962d000d0"},
	"distributed/cluster/lossy/seed2":               {"0a05ce7a80b482f2", "d4988ff66916b1a2"},
	"distributed/cluster/lossy/seed3":               {"058660b54a172f74", "584721f8722aced3"},
	"distributed/cluster/none/seed1":                {"036cafabf8a39bb3", "09d3c7346608af5a"},
	"distributed/cluster/none/seed2":                {"81fdb2c88c940899", "63244f8cba20ef82"},
	"distributed/cluster/none/seed3":                {"256b70fd1e50c8e7", "6d51bcac4535377b"},
	"distributed/grid/crashed/seed1":                {"c50a4a5bca7bf271", "16062d8503ce0333"},
	"distributed/grid/crashed/seed2":                {"0072c1f1b1c95067", "e851a635213683d0"},
	"distributed/grid/crashed/seed3":                {"285286515ddc4599", "de1041c6b9ff227b"},
	"distributed/grid/drop40/seed1":                 {"44f2fde410de7368", "1c4e0de55ac32929"},
	"distributed/grid/drop40/seed2":                 {"e7a2065dd593ecaa", "4ccfe3b676b0fa90"},
	"distributed/grid/drop40/seed3":                 {"8a50bc2b1f0c458f", "0f9bb19fecd89b1a"},
	"distributed/grid/lossy/seed1":                  {"5299c8dd40f66941", "7adb4c5690fb36f0"},
	"distributed/grid/lossy/seed2":                  {"6d7fa7f9e982b012", "8cf12c4b1dfdcdbf"},
	"distributed/grid/lossy/seed3":                  {"a16e70dff0deda13", "bfe3ea334def8bb9"},
	"distributed/grid/none/seed1":                   {"bdbfa248e2a30851", "279d1bc95045f0f8"},
	"distributed/grid/none/seed2":                   {"7cfec230a9ecd5c6", "13ff516ebae0b1d6"},
	"distributed/grid/none/seed3":                   {"9da1520d93e7d137", "085757956c43481a"},
	"distributed/line/crashed/seed1":                {"30d0c7af62d5fc2f", "78e384eb45c7d25b"},
	"distributed/line/crashed/seed2":                {"8db0956cdc354bf8", "38532020cbe0ad9d"},
	"distributed/line/crashed/seed3":                {"4d9663a7a7ef4323", "40876e2f93073706"},
	"distributed/line/drop40/seed1":                 {"67b2c00bda4a698b", "6e30da4953fc76ef"},
	"distributed/line/drop40/seed2":                 {"71444ea50f27dbe3", "be116d0b75831fd3"},
	"distributed/line/drop40/seed3":                 {"c39bff517d05ed15", "19170604fc6b0e1f"},
	"distributed/line/lossy/seed1":                  {"72548332fedff664", "d5c3a75f43f3a66c"},
	"distributed/line/lossy/seed2":                  {"a3ba9246276b4fe2", "11874c7eba70b9af"},
	"distributed/line/lossy/seed3":                  {"ad4dbafd65a1b9a3", "1ebb13bf538022b4"},
	"distributed/line/none/seed1":                   {"0c20a60a8f47526a", "89d6b3634bf10274"},
	"distributed/line/none/seed2":                   {"b1d3e3e87c9644e0", "f850786c17099cd0"},
	"distributed/line/none/seed3":                   {"c6373568b8a2e53b", "654ae28c9bc709d9"},
	"run/clique/bucket-coloring/seed1":              {"96722305223abec7", "756cbae4184474a6"},
	"run/clique/bucket-coloring/seed2":              {"9bd5c183991e37fb", "156f076abd771650"},
	"run/clique/bucket-coloring/seed3":              {"9e427aa65934c09e", "0f7ebc56b1d01107"},
	"run/clique/bucket-list/seed1":                  {"d08e10033b625030", "efd15d8f4d194b46"},
	"run/clique/bucket-list/seed2":                  {"414efef79132c780", "1075b84986d8bb49"},
	"run/clique/bucket-list/seed3":                  {"ee7afcc32665e0a0", "0f7ebc56b1d01107"},
	"run/clique/bucket-random-suffix/seed1":         {"58581acbb87468a3", "889e3d595dfd7dbb"},
	"run/clique/bucket-random-suffix/seed2":         {"aa111da710e8d6d6", "bea26b305297897a"},
	"run/clique/bucket-random-suffix/seed3":         {"c39d0d0986936902", "680dcfacad80eeb1"},
	"run/clique/bucket-tour-slow/seed1":             {"7a29f77dd0671b49", "efedb14ea850e1b5"},
	"run/clique/bucket-tour-slow/seed2":             {"879d397f72abb3e5", "c84963d89653cc20"},
	"run/clique/bucket-tour-slow/seed3":             {"6c8feb0bf4279e42", "99a34f28fa02968f"},
	"run/clique/bucket-tour/seed1":                  {"bdebc017e93e6335", "ab78d8980cbc17bc"},
	"run/clique/bucket-tour/seed2":                  {"d9dbfcd99df0d681", "a046ddaed658e4f7"},
	"run/clique/bucket-tour/seed3":                  {"445d8d1fdebe24cf", "a45cb03674420206"},
	"run/clique/coordinator/seed1":                  {"05c44b5bfb9c3780", "c65a9b906d785670"},
	"run/clique/coordinator/seed2":                  {"1249739523ff220f", "e05c0ccac899a9ed"},
	"run/clique/coordinator/seed3":                  {"8882317bd1052915", "6585e1bff94e5385"},
	"run/clique/distributed/seed1":                  {"38f5fe46f31a05a7", "b2079028339d5967"},
	"run/clique/distributed/seed2":                  {"4220e39ee3159375", "0b244f9c9d2f0ef6"},
	"run/clique/distributed/seed3":                  {"8ac1001dc8213a6c", "d8a846447ef4798e"},
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
	"run/cluster/bucket-coloring/seed1":             {"17e3d47d191e9b9e", "e56ed88a4cd62fad"},
	"run/cluster/bucket-coloring/seed2":             {"dab80b47bd6dd30a", "3594a900d43a224f"},
	"run/cluster/bucket-coloring/seed3":             {"54653c0a20d5b43c", "a63484c443748a1f"},
	"run/cluster/bucket-list/seed1":                 {"5974e9c027b2bf4f", "e72587345bbf5b83"},
	"run/cluster/bucket-list/seed2":                 {"1a2d95346af4ef30", "9e681a22b2abc08d"},
	"run/cluster/bucket-list/seed3":                 {"c7e1e9e716cfcbc9", "09b29177ed9147f4"},
	"run/cluster/bucket-random-suffix/seed1":        {"700012158bea831f", "7942a0f1b4582fe9"},
	"run/cluster/bucket-random-suffix/seed2":        {"2b30d312c4615596", "0d51056ef412d14d"},
	"run/cluster/bucket-random-suffix/seed3":        {"3338a3687302dd04", "76426aefa3e819ed"},
	"run/cluster/bucket-tour-slow/seed1":            {"588708b773365058", "2ff6f0bfa604b2e3"},
	"run/cluster/bucket-tour-slow/seed2":            {"a19c576b4ad0f90f", "6f18e2d95be50636"},
	"run/cluster/bucket-tour-slow/seed3":            {"b2d8432165647f5c", "3f197b977bed80fb"},
	"run/cluster/bucket-tour/seed1":                 {"5c62266d5b65545c", "70d7882d30c9d76a"},
	"run/cluster/bucket-tour/seed2":                 {"ff0eeacb94a60476", "007a4c9c0a1bc91c"},
	"run/cluster/bucket-tour/seed3":                 {"060e112dc849815e", "0ab9046d90a11cd9"},
	"run/cluster/coordinator/seed1":                 {"a53209b051157124", "ff90723444188526"},
	"run/cluster/coordinator/seed2":                 {"8b2c7abfe0523361", "27ec9ae8a7a69de0"},
	"run/cluster/coordinator/seed3":                 {"1030b7a5a69d20ac", "8f06908e9409b23c"},
	"run/cluster/distributed/seed1":                 {"11a7b90f1e3e6b97", "a6813bc4e12fed5d"},
	"run/cluster/distributed/seed2":                 {"d5d09da9b38df27e", "ae2578f6d96813ca"},
	"run/cluster/distributed/seed3":                 {"09c2887750002c4c", "10f719b435ba290b"},
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
	"run/grid/bucket-coloring/seed1":                {"847fb9211b39cae2", "e9a2c226ef34d968"},
	"run/grid/bucket-coloring/seed2":                {"09f8e8fac08626b1", "fbb652448c1f92f8"},
	"run/grid/bucket-coloring/seed3":                {"b26de38310826f8b", "6ae7fe3ebed8f3ad"},
	"run/grid/bucket-list/seed1":                    {"cb4d99ce7e11f836", "79821198d53f44a2"},
	"run/grid/bucket-list/seed2":                    {"15d28be576ee0a07", "75c462431bf7eef2"},
	"run/grid/bucket-list/seed3":                    {"8831fd2bcd029332", "bcd7e80a5d66a091"},
	"run/grid/bucket-random-suffix/seed1":           {"ce02f51b9af57712", "7d9faac00ef0c17c"},
	"run/grid/bucket-random-suffix/seed2":           {"39b9bc090633a9d7", "2f442fa201cbe65c"},
	"run/grid/bucket-random-suffix/seed3":           {"cb4ed4a28fd7b498", "c5516ce17c25231f"},
	"run/grid/bucket-tour-slow/seed1":               {"1f9f0fcd5b698f43", "c185730aa91b8bba"},
	"run/grid/bucket-tour-slow/seed2":               {"698fc35629bc3642", "5c574035db6e388c"},
	"run/grid/bucket-tour-slow/seed3":               {"d3715b86963b1e49", "08389a808ff4dd99"},
	"run/grid/bucket-tour/seed1":                    {"777dd622f2df5696", "2ed60e1db881ed97"},
	"run/grid/bucket-tour/seed2":                    {"4a5647d9250fb472", "a7b8fe6b1a51d0bc"},
	"run/grid/bucket-tour/seed3":                    {"1e84c7cdb31d5d87", "a9b509438f4a2e0f"},
	"run/grid/coordinator/seed1":                    {"ee793361224855d4", "454e32741e0ded32"},
	"run/grid/coordinator/seed2":                    {"3b284174515188a4", "964f29a97b9d3ba2"},
	"run/grid/coordinator/seed3":                    {"c97cfc0a51a1034a", "c18296064a424157"},
	"run/grid/distributed/seed1":                    {"adce3cfb86dfea2e", "83d26adb122a078a"},
	"run/grid/distributed/seed2":                    {"860a3f8dadb3e4a3", "d8f55f3a75903f97"},
	"run/grid/distributed/seed3":                    {"6ba81091ca8be6f9", "48dd17bce19ffc4d"},
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
	"run/line/bucket-coloring/seed1":                {"684b444842c92ff7", "e55866410a5f04f4"},
	"run/line/bucket-coloring/seed2":                {"7ef36f52266feeee", "df14b52c3ae81d74"},
	"run/line/bucket-coloring/seed3":                {"de38f2e1f205380f", "529e93091bf070d9"},
	"run/line/bucket-list/seed1":                    {"60efc36ef8f4b30f", "f756de2ac513f48d"},
	"run/line/bucket-list/seed2":                    {"3a2a52dda59004d4", "71a6d5ece4313a78"},
	"run/line/bucket-list/seed3":                    {"24d1284b1abda0c0", "14956b78d9de50a4"},
	"run/line/bucket-random-suffix/seed1":           {"a21b9ca47b73a616", "14e03f902499032c"},
	"run/line/bucket-random-suffix/seed2":           {"7240ec1053b94ea2", "e68d5bc15eb25f02"},
	"run/line/bucket-random-suffix/seed3":           {"f356c24384063fda", "92ff58e430a8e288"},
	"run/line/bucket-tour-slow/seed1":               {"2aad8e94051ebecd", "7e25e52de972c99d"},
	"run/line/bucket-tour-slow/seed2":               {"9a001284243bc072", "bbbef7592752af82"},
	"run/line/bucket-tour-slow/seed3":               {"b022a4f8edb4431a", "59c7bc0f395711df"},
	"run/line/bucket-tour/seed1":                    {"d58996ac2cacb788", "cb4c55585ccff3ce"},
	"run/line/bucket-tour/seed2":                    {"ddf51e5c2a6a5166", "33fda1f20d0cd6b1"},
	"run/line/bucket-tour/seed3":                    {"7f5a98db3bd76b4b", "69202d9c490a0112"},
	"run/line/coordinator/seed1":                    {"6a2ea7c5c18207b4", "f883bfcb8cbbfb37"},
	"run/line/coordinator/seed2":                    {"5283476741cf7d5f", "96e81e1e9a725702"},
	"run/line/coordinator/seed3":                    {"3d924a1b502a539a", "d20b6194efaefab2"},
	"run/line/distributed/seed1":                    {"13fb1e15644be6bd", "87b4c0321dd1ff39"},
	"run/line/distributed/seed2":                    {"91485daa5d05752e", "8ea6eb534e1a1871"},
	"run/line/distributed/seed3":                    {"0837f353ff84028e", "1999dc249fd919e5"},
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
	"stream/cluster/bucket-coloring/bursty":         {"54f1f8817245a289", "2d732a57fd654b7c"},
	"stream/cluster/bucket-coloring/poisson":        {"538c70c6fe1be567", "c3d6ea788bea5a20"},
	"stream/cluster/bucket-list/bursty":             {"d08b3ef79c4b2f5c", "04934b789ef24140"},
	"stream/cluster/bucket-list/poisson":            {"ca137867574b886c", "c3d6ea788bea5a20"},
	"stream/cluster/bucket-tour/bursty":             {"5963333df84b5e2a", "b721f96df1c211fa"},
	"stream/cluster/bucket-tour/poisson":            {"a44d367b05b915b6", "8a10978f7dd35a83"},
	"stream/cluster/coordinator/bursty":             {"394d4c3fb1ff66d1", "82becccecb869e43"},
	"stream/cluster/coordinator/poisson":            {"abb36ae5cdb4821e", "2a2f5aac20480485"},
	"stream/cluster/greedy-uniform/bursty":          {"47bc4bae326dfceb", "f7c61fd1eb755d3f"},
	"stream/cluster/greedy-uniform/poisson":         {"7c23a7adb7d7801f", "20f55358953d2e28"},
	"stream/cluster/greedy/bursty":                  {"6d289d968e47f1ca", "a794be465e3a981d"},
	"stream/cluster/greedy/poisson":                 {"c53e9694a5fd56a7", "d138239e41c13811"},
	"stream/cluster/window/bursty":                  {"7eb6d6c712b1984d", "04cef61c58a1980c"},
	"stream/cluster/window/poisson":                 {"9640ff215c85422e", "37fdc4fb8a7ae611"},
	"stream/grid/bucket-coloring/bursty":            {"4b1f685f2bde5a54", "45e0065df4110948"},
	"stream/grid/bucket-coloring/poisson":           {"94c3e750e557d430", "977db6e825dbae3d"},
	"stream/grid/bucket-list/bursty":                {"4d6bc902206a9f10", "c6ad1252971b2fca"},
	"stream/grid/bucket-list/poisson":               {"d89896bbe4c93f06", "977db6e825dbae3d"},
	"stream/grid/bucket-tour/bursty":                {"c4fef166357e53a6", "4622099b7adb7328"},
	"stream/grid/bucket-tour/poisson":               {"c8836d3a7f699b2c", "6788318974ec377f"},
	"stream/grid/coordinator/bursty":                {"f1c1ac84f5f44fc5", "e91fe868d1df7e0d"},
	"stream/grid/coordinator/poisson":               {"59005d18b65e31fd", "608a697426a50834"},
	"stream/grid/greedy-uniform/bursty":             {"a5a1fc0124d404ec", "9d815e23d2ed8afe"},
	"stream/grid/greedy-uniform/poisson":            {"4addd294ab0ce9bf", "f9aac521a783f471"},
	"stream/grid/greedy/bursty":                     {"fb764cf7b0f8ae82", "82027e3d618028ec"},
	"stream/grid/greedy/poisson":                    {"a4e8b0fd8a064f35", "f277d3ac69525e8b"},
	"stream/grid/window/bursty":                     {"a9612d7e379cfebf", "1c854552e824634f"},
	"stream/grid/window/poisson":                    {"c26128719e5fe880", "5ddef09f35f58c43"},
}
