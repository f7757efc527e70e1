package sched_test

// Driver goldens: a digest of every driver's output on fixed grids,
// pinned in driverGoldens. The identity suites compare two paths through
// the same driver (incremental vs oracle, P=1 vs P=2); none of them
// notices the driver itself drifting.
// These do: any change to decisions, results, ratios, abandoned
// transactions, stream aggregates, the deterministic metric snapshot or
// the emitted event stream changes a digest. A mismatch prints the whole
// new table; paste it only for an intended behaviour change.

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

// metrics returns the deterministic part of a snapshot: drop names the
// instruments left out (always the wall-clock sched.snapshot_ns).
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
	for _, name := range append(drop, obs.NameSchedSnapshotNs) {
		delete(out.Counters, name.String())
		delete(out.Gauges, name.String())
		delete(out.Histograms, name.String())
	}
	return out
}

func (r recorder) eventDigest() string { return hex.EncodeToString(r.events.Sum(nil)) }

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

// goldenTable collects digests; the variants of one case (P=1 and P=2)
// must agree with each other and share one entry.
type goldenTable map[string]string

func (g goldenTable) put(t *testing.T, name, d string) {
	t.Helper()
	if prev, ok := g[name]; ok && prev != d {
		t.Errorf("%s: variant digest %s differs from %s", name, d, prev)
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
					got.put(t, name, digest(t, rr.Scheduler, rr.Decisions, rr.Result, rr.Ratios, rr.MaxRatio,
						rr.Abandoned, rr.Failed, rec.metrics(rr.Metrics), rec.eventDigest()))
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
				var parts []any
				for _, snapEvery := range []int{-1, 1} {
					rec := newRecorder()
					rr, in, err := sched.RunClosedLoop(g, clConfig(g, seed), mk(), sched.Options{SnapshotEvery: snapEvery, Obs: rec.m})
					if err != nil {
						t.Fatalf("%s snapshots=%d: %v", name, snapEvery, err)
					}
					parts = append(parts, rr.Scheduler, rr.Decisions, rr.Result, rr.Ratios, rr.MaxRatio,
						rr.Abandoned, rr.Failed, in.Txns, rec.metrics(rr.Metrics), rec.eventDigest())
				}
				got.put(t, name, digest(t, parts...))
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
				got.put(t, name, digest(t, fields, rec.metrics(res.Metrics), rec.eventDigest()))
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
					got.put(t, name, digest(t, rr.Scheduler, rr.Decisions, rr.Result, rr.Ratios, rr.MaxRatio,
						rr.Abandoned, rr.Failed, res.Abandoned, res.Audit, res.Messages, res.MsgDistance,
						res.CoverLayers, res.SubLayers, res.Lemma6Pairs, res.Lemma6Violations,
						rec.metrics(rr.Metrics, obs.NameSchedWakeups, obs.NameSchedSnapshotLive, obs.NameSchedLiveTxns),
						rec.eventDigest()))
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
		if want, have := driverGoldens[name], got[name]; want != have {
			t.Errorf("%s: digest %q, golden %q", name, have, want)
			mismatch = true
		}
	}
	if mismatch {
		var b strings.Builder
		for _, name := range names {
			if d, ok := got[name]; ok {
				fmt.Fprintf(&b, "\t%q: %q,\n", name, d)
			}
		}
		t.Errorf("new table:\nvar driverGoldens = map[string]string{\n%s}", b.String())
	}
}

// driverGoldens holds one digest per case, keyed driver/topology/engine/variant.
var driverGoldens = map[string]string{
	"closed-loop/clique/bucket-coloring/seed1":      "2a187bd4de47d908",
	"closed-loop/clique/bucket-coloring/seed2":      "291f9774cfaea237",
	"closed-loop/clique/bucket-coloring/seed3":      "eaabbd357b9a426d",
	"closed-loop/clique/bucket-tour-rebuild/seed1":  "86554ee0fb586d06",
	"closed-loop/clique/bucket-tour-rebuild/seed2":  "bf019cc6d94f5331",
	"closed-loop/clique/bucket-tour-rebuild/seed3":  "fd45fa7ac7656d05",
	"closed-loop/clique/bucket-tour/seed1":          "99529c72beae785a",
	"closed-loop/clique/bucket-tour/seed2":          "49f58f4e73b49abe",
	"closed-loop/clique/bucket-tour/seed3":          "8d4a8ebf57d7354d",
	"closed-loop/clique/coordinator/seed1":          "34defa603820c628",
	"closed-loop/clique/coordinator/seed2":          "250e697548f27d47",
	"closed-loop/clique/coordinator/seed3":          "9b76a4fabef603a8",
	"closed-loop/clique/greedy-rebuild/seed1":       "a198b91443110ccc",
	"closed-loop/clique/greedy-rebuild/seed2":       "66e757873a72c561",
	"closed-loop/clique/greedy-rebuild/seed3":       "a24a1b56f796aee7",
	"closed-loop/clique/greedy/seed1":               "98f88db23e8d6580",
	"closed-loop/clique/greedy/seed2":               "cd0610796be8e8a0",
	"closed-loop/clique/greedy/seed3":               "fec26a189d965fab",
	"closed-loop/cluster/bucket-coloring/seed1":     "41d15671188d6135",
	"closed-loop/cluster/bucket-coloring/seed2":     "a94c377e5d40a23f",
	"closed-loop/cluster/bucket-coloring/seed3":     "f31e90d2376064a2",
	"closed-loop/cluster/bucket-tour-rebuild/seed1": "94fec352fb48606c",
	"closed-loop/cluster/bucket-tour-rebuild/seed2": "71bc9c3997485394",
	"closed-loop/cluster/bucket-tour-rebuild/seed3": "8a3b60234add6140",
	"closed-loop/cluster/bucket-tour/seed1":         "65ce8c4480ce59e1",
	"closed-loop/cluster/bucket-tour/seed2":         "7f4a4dd648962b7f",
	"closed-loop/cluster/bucket-tour/seed3":         "41afb875aaceae26",
	"closed-loop/cluster/coordinator/seed1":         "6be5430f3bce2f34",
	"closed-loop/cluster/coordinator/seed2":         "2b0d716387676632",
	"closed-loop/cluster/coordinator/seed3":         "18b1e9b24e6801b0",
	"closed-loop/cluster/greedy-rebuild/seed1":      "681a8934df27578f",
	"closed-loop/cluster/greedy-rebuild/seed2":      "b5186c82e15febf4",
	"closed-loop/cluster/greedy-rebuild/seed3":      "53b619877eedea75",
	"closed-loop/cluster/greedy/seed1":              "c785cdecd1c6b55e",
	"closed-loop/cluster/greedy/seed2":              "39a7f00441abb170",
	"closed-loop/cluster/greedy/seed3":              "a8110da19dd19eb1",
	"closed-loop/grid/bucket-coloring/seed1":        "780e0a273ebc904a",
	"closed-loop/grid/bucket-coloring/seed2":        "8622b14281d9f67f",
	"closed-loop/grid/bucket-coloring/seed3":        "e1bb7ee1686b91e9",
	"closed-loop/grid/bucket-tour-rebuild/seed1":    "e3b35e7233645c1f",
	"closed-loop/grid/bucket-tour-rebuild/seed2":    "80f99705c4da95af",
	"closed-loop/grid/bucket-tour-rebuild/seed3":    "13308c43bec9faba",
	"closed-loop/grid/bucket-tour/seed1":            "d3ba3736fdc8d896",
	"closed-loop/grid/bucket-tour/seed2":            "4a3b7c25ad5197cb",
	"closed-loop/grid/bucket-tour/seed3":            "03ed810ac51cf697",
	"closed-loop/grid/coordinator/seed1":            "a273d31816bfd549",
	"closed-loop/grid/coordinator/seed2":            "398c570fece73864",
	"closed-loop/grid/coordinator/seed3":            "62fabab5f951682c",
	"closed-loop/grid/greedy-rebuild/seed1":         "6bca1c6f5992da4b",
	"closed-loop/grid/greedy-rebuild/seed2":         "ca4136421bc9298d",
	"closed-loop/grid/greedy-rebuild/seed3":         "a2b87838dc89874e",
	"closed-loop/grid/greedy/seed1":                 "031328b09a8fcead",
	"closed-loop/grid/greedy/seed2":                 "076ba2e24cead62b",
	"closed-loop/grid/greedy/seed3":                 "6b55d3c28f55fcc3",
	"closed-loop/line/bucket-coloring/seed1":        "5f7c3c4bcf1766dc",
	"closed-loop/line/bucket-coloring/seed2":        "2f3706ea72d9034c",
	"closed-loop/line/bucket-coloring/seed3":        "800a5a399d261d48",
	"closed-loop/line/bucket-tour-rebuild/seed1":    "0541a331ce027a5f",
	"closed-loop/line/bucket-tour-rebuild/seed2":    "9c163da96114b8b8",
	"closed-loop/line/bucket-tour-rebuild/seed3":    "3d8c8ad4c10cde92",
	"closed-loop/line/bucket-tour/seed1":            "c8b3d745fc34da44",
	"closed-loop/line/bucket-tour/seed2":            "b3c4f8cae63d4272",
	"closed-loop/line/bucket-tour/seed3":            "008bec5e3bf57d8a",
	"closed-loop/line/coordinator/seed1":            "6331256ef2cfb42e",
	"closed-loop/line/coordinator/seed2":            "8ccbe50b60d05fce",
	"closed-loop/line/coordinator/seed3":            "4ec4486249d61b91",
	"closed-loop/line/greedy-rebuild/seed1":         "b4e9ca096491b903",
	"closed-loop/line/greedy-rebuild/seed2":         "e06b6927cb9122b0",
	"closed-loop/line/greedy-rebuild/seed3":         "c469921cf5ea192a",
	"closed-loop/line/greedy/seed1":                 "f959d8348723a310",
	"closed-loop/line/greedy/seed2":                 "8cef09e7af852cbb",
	"closed-loop/line/greedy/seed3":                 "0f06ac011f38b965",
	"distributed/clique/crashed/seed1":              "da32885010841a7a",
	"distributed/clique/crashed/seed2":              "7ce984ce63eb446c",
	"distributed/clique/crashed/seed3":              "92b7f1862b45ad17",
	"distributed/clique/drop40/seed1":               "6bc89e85e15184b3",
	"distributed/clique/drop40/seed2":               "01f6e1e6ba14be2d",
	"distributed/clique/drop40/seed3":               "c8b184cea20379f4",
	"distributed/clique/lossy/seed1":                "0734b23c24c2950a",
	"distributed/clique/lossy/seed2":                "6e1c179922f2fe73",
	"distributed/clique/lossy/seed3":                "f9c8e3c0a630966f",
	"distributed/clique/none/seed1":                 "5d6161e1ffbd3759",
	"distributed/clique/none/seed2":                 "14a0636cb0895bf6",
	"distributed/clique/none/seed3":                 "5d7a94daf56b9d2f",
	"distributed/cluster/crashed/seed1":             "13bf67f3aebc2d32",
	"distributed/cluster/crashed/seed2":             "979a69ac67f65d7e",
	"distributed/cluster/crashed/seed3":             "00cfdff56e7468e9",
	"distributed/cluster/drop40/seed1":              "0d46987ee7cba0fb",
	"distributed/cluster/drop40/seed2":              "27b79de7fb792323",
	"distributed/cluster/drop40/seed3":              "77578dff4abe005d",
	"distributed/cluster/lossy/seed1":               "5b9132fab66ba19c",
	"distributed/cluster/lossy/seed2":               "faf7e6f5f2f349d9",
	"distributed/cluster/lossy/seed3":               "a9ecc9deb6aa8689",
	"distributed/cluster/none/seed1":                "ef3605bc448c896d",
	"distributed/cluster/none/seed2":                "c95f6b27f25b0fb6",
	"distributed/cluster/none/seed3":                "1c685905615cd5ac",
	"distributed/grid/crashed/seed1":                "43413463c75c9109",
	"distributed/grid/crashed/seed2":                "d68bf3122590d412",
	"distributed/grid/crashed/seed3":                "5658ed7186eb0428",
	"distributed/grid/drop40/seed1":                 "c0ad8b236ec63fe6",
	"distributed/grid/drop40/seed2":                 "dfea6e7cf087faf5",
	"distributed/grid/drop40/seed3":                 "267d2fe237c55a2e",
	"distributed/grid/lossy/seed1":                  "a7bd31b9cf478fab",
	"distributed/grid/lossy/seed2":                  "b32e7582c45963fe",
	"distributed/grid/lossy/seed3":                  "cce98a4a2414e7ce",
	"distributed/grid/none/seed1":                   "87af7864e86f77f7",
	"distributed/grid/none/seed2":                   "1b38c17c49a41cac",
	"distributed/grid/none/seed3":                   "b18df7cecc17de88",
	"distributed/line/crashed/seed1":                "a059ede8ab62c823",
	"distributed/line/crashed/seed2":                "8b6b28adb8380841",
	"distributed/line/crashed/seed3":                "ee723573ec75fbbf",
	"distributed/line/drop40/seed1":                 "11ced5de780f8825",
	"distributed/line/drop40/seed2":                 "39a022d8d3822035",
	"distributed/line/drop40/seed3":                 "d2bc941395e66383",
	"distributed/line/lossy/seed1":                  "15aab792d4796521",
	"distributed/line/lossy/seed2":                  "33d970764a04b8bc",
	"distributed/line/lossy/seed3":                  "86c2239064e54904",
	"distributed/line/none/seed1":                   "a4ed583945d51c32",
	"distributed/line/none/seed2":                   "f0814bd853475781",
	"distributed/line/none/seed3":                   "8fb0a15ce172bb96",
	"run/clique/bucket-coloring/seed1":              "968cd1b25a89d7b8",
	"run/clique/bucket-coloring/seed2":              "86deea50b5e6c5c0",
	"run/clique/bucket-coloring/seed3":              "0e6cfeed76f073d7",
	"run/clique/bucket-list/seed1":                  "41543342c5da4f2f",
	"run/clique/bucket-list/seed2":                  "8c3c17eb95723a63",
	"run/clique/bucket-list/seed3":                  "7ece5db6297a7d9f",
	"run/clique/bucket-random-suffix/seed1":         "06aaa246457ca1c8",
	"run/clique/bucket-random-suffix/seed2":         "e25b8e01310e1ee2",
	"run/clique/bucket-random-suffix/seed3":         "3431b92c533a260a",
	"run/clique/bucket-tour-slow/seed1":             "5225b96b047e2970",
	"run/clique/bucket-tour-slow/seed2":             "0a7ae59847868187",
	"run/clique/bucket-tour-slow/seed3":             "0aec306b99d16b73",
	"run/clique/bucket-tour/seed1":                  "fe37ba6c958b712f",
	"run/clique/bucket-tour/seed2":                  "34bd71ceb10643be",
	"run/clique/bucket-tour/seed3":                  "d6da840d2410ad78",
	"run/clique/coordinator/seed1":                  "c80cf54d43e1b180",
	"run/clique/coordinator/seed2":                  "2150e00bb9752a85",
	"run/clique/coordinator/seed3":                  "1264ae768c8779a3",
	"run/clique/distributed/seed1":                  "92255971c52f196f",
	"run/clique/distributed/seed2":                  "086a46d804ea434d",
	"run/clique/distributed/seed3":                  "18ecd61b559af056",
	"run/clique/greedy-linkcap/seed1":               "b9aacde552cd1e28",
	"run/clique/greedy-linkcap/seed2":               "1be929e9baf2e19f",
	"run/clique/greedy-linkcap/seed3":               "c68c47f03cd0bf27",
	"run/clique/greedy-pad2/seed1":                  "e5380f3338bb69f7",
	"run/clique/greedy-pad2/seed2":                  "8da1bab11fefd459",
	"run/clique/greedy-pad2/seed3":                  "e9bb6934992c27ff",
	"run/clique/greedy-slow/seed1":                  "c5157eb8a15d6a82",
	"run/clique/greedy-slow/seed2":                  "8971f3172a7bcb22",
	"run/clique/greedy-slow/seed3":                  "cabc586ed28f0cc1",
	"run/clique/greedy-uniform/seed1":               "0f215b83c32bdbb9",
	"run/clique/greedy-uniform/seed2":               "a7c81472b7068768",
	"run/clique/greedy-uniform/seed3":               "33e402c538bdf5c2",
	"run/clique/greedy/seed1":                       "090e054cff74b6f8",
	"run/clique/greedy/seed2":                       "00b3baa696ee5d71",
	"run/clique/greedy/seed3":                       "a2f59df3bbd7bbe8",
	"run/clique/window/seed1":                       "97e5125a91c17941",
	"run/clique/window/seed2":                       "a1002330f90d980e",
	"run/clique/window/seed3":                       "dea19449c0fbfdac",
	"run/cluster/bucket-coloring/seed1":             "c06d877688407a50",
	"run/cluster/bucket-coloring/seed2":             "0b051410c5e60e12",
	"run/cluster/bucket-coloring/seed3":             "8b7975b6dea124e1",
	"run/cluster/bucket-list/seed1":                 "a97c6f08c4e95a5e",
	"run/cluster/bucket-list/seed2":                 "26d981b82cf0224d",
	"run/cluster/bucket-list/seed3":                 "f90fd7319f4338f8",
	"run/cluster/bucket-random-suffix/seed1":        "5dd669ea6c3d2561",
	"run/cluster/bucket-random-suffix/seed2":        "6ce35bf521891325",
	"run/cluster/bucket-random-suffix/seed3":        "c099adc2f4241851",
	"run/cluster/bucket-tour-slow/seed1":            "ee82b1dacd55e4d4",
	"run/cluster/bucket-tour-slow/seed2":            "4f081553580e919a",
	"run/cluster/bucket-tour-slow/seed3":            "b2d6fde6100832b6",
	"run/cluster/bucket-tour/seed1":                 "cd2a8e873656a967",
	"run/cluster/bucket-tour/seed2":                 "9586e844d72e146a",
	"run/cluster/bucket-tour/seed3":                 "9560d4398a276a35",
	"run/cluster/coordinator/seed1":                 "1d047a37695366d5",
	"run/cluster/coordinator/seed2":                 "c613efaf90ced00c",
	"run/cluster/coordinator/seed3":                 "149abe7245f741b9",
	"run/cluster/distributed/seed1":                 "9782ee3d152fed4c",
	"run/cluster/distributed/seed2":                 "9f73de7cdd3d50f7",
	"run/cluster/distributed/seed3":                 "1d72f27dd243ba3e",
	"run/cluster/greedy-linkcap/seed1":              "f7bc01b8f0e70dc0",
	"run/cluster/greedy-linkcap/seed2":              "4d2fb6c2343d16b2",
	"run/cluster/greedy-linkcap/seed3":              "a96f7fb442e7fa07",
	"run/cluster/greedy-pad2/seed1":                 "0bad10bec16f78dd",
	"run/cluster/greedy-pad2/seed2":                 "d81305e5bf72f7e2",
	"run/cluster/greedy-pad2/seed3":                 "06bf1d61307c0aa9",
	"run/cluster/greedy-slow/seed1":                 "e22e6388ae349f7b",
	"run/cluster/greedy-slow/seed2":                 "50f3c4f52de1e255",
	"run/cluster/greedy-slow/seed3":                 "ca6ebd4e418663b5",
	"run/cluster/greedy-uniform/seed1":              "963e9f802b5c7859",
	"run/cluster/greedy-uniform/seed2":              "eb5b753d9078dbf9",
	"run/cluster/greedy-uniform/seed3":              "bf5c943216fed66c",
	"run/cluster/greedy/seed1":                      "64ec8a7709d629a3",
	"run/cluster/greedy/seed2":                      "d6e5d12555fd4c85",
	"run/cluster/greedy/seed3":                      "92f997330fa7bd41",
	"run/cluster/window/seed1":                      "80ed3732dfc8a48b",
	"run/cluster/window/seed2":                      "2623aecd39063332",
	"run/cluster/window/seed3":                      "c7820c4a39dfb407",
	"run/grid/bucket-coloring/seed1":                "63258d3549aac782",
	"run/grid/bucket-coloring/seed2":                "ccc359f11a11c807",
	"run/grid/bucket-coloring/seed3":                "ca0334b823d78ba6",
	"run/grid/bucket-list/seed1":                    "ba0d9c1af8e1a0fa",
	"run/grid/bucket-list/seed2":                    "dd90d59de272f960",
	"run/grid/bucket-list/seed3":                    "90682e6f6ff48051",
	"run/grid/bucket-random-suffix/seed1":           "34f5c375709b60b5",
	"run/grid/bucket-random-suffix/seed2":           "21f347e30f65b5a2",
	"run/grid/bucket-random-suffix/seed3":           "b1ba8d84068b8cf8",
	"run/grid/bucket-tour-slow/seed1":               "10bf08d9825bc190",
	"run/grid/bucket-tour-slow/seed2":               "fc88868184b8dbd2",
	"run/grid/bucket-tour-slow/seed3":               "09592f8eccd72954",
	"run/grid/bucket-tour/seed1":                    "24976f6e256c42ea",
	"run/grid/bucket-tour/seed2":                    "f7beb8c50c317883",
	"run/grid/bucket-tour/seed3":                    "d96ec927370bf282",
	"run/grid/coordinator/seed1":                    "fb1fc6044b40e85d",
	"run/grid/coordinator/seed2":                    "55a5eca2413ec9bf",
	"run/grid/coordinator/seed3":                    "9a90d82a3eb46821",
	"run/grid/distributed/seed1":                    "21fb57ca75e83a90",
	"run/grid/distributed/seed2":                    "da811a60234e7d5a",
	"run/grid/distributed/seed3":                    "9f0453c58c708162",
	"run/grid/greedy-linkcap/seed1":                 "d7afe0c7e3a6c6d7",
	"run/grid/greedy-linkcap/seed2":                 "36f87335e9f5a066",
	"run/grid/greedy-linkcap/seed3":                 "162d1b149c6306f0",
	"run/grid/greedy-pad2/seed1":                    "4359b6197725e3b9",
	"run/grid/greedy-pad2/seed2":                    "95c853888b33facb",
	"run/grid/greedy-pad2/seed3":                    "51266d85b79b2b54",
	"run/grid/greedy-slow/seed1":                    "e06f04bfc12f599d",
	"run/grid/greedy-slow/seed2":                    "8226d74d4614ee03",
	"run/grid/greedy-slow/seed3":                    "8090af0a383458ad",
	"run/grid/greedy-uniform/seed1":                 "45bdb470d9e10fb8",
	"run/grid/greedy-uniform/seed2":                 "573b7193606cef86",
	"run/grid/greedy-uniform/seed3":                 "cf05dfb3ae7fbef6",
	"run/grid/greedy/seed1":                         "868169d0bd68815a",
	"run/grid/greedy/seed2":                         "c1c41712078f42f8",
	"run/grid/greedy/seed3":                         "a968d0e425697ca1",
	"run/grid/window/seed1":                         "ddba344b5db99a10",
	"run/grid/window/seed2":                         "14edc3d246173fc2",
	"run/grid/window/seed3":                         "76e61e8727f79705",
	"run/line/bucket-coloring/seed1":                "fec6edd747292408",
	"run/line/bucket-coloring/seed2":                "2026cea1d7536e90",
	"run/line/bucket-coloring/seed3":                "13605bc9142b3662",
	"run/line/bucket-list/seed1":                    "f8d5f05fcfcaaf10",
	"run/line/bucket-list/seed2":                    "8c09cc8ebdc18893",
	"run/line/bucket-list/seed3":                    "c62ec462c996d17d",
	"run/line/bucket-random-suffix/seed1":           "87d223e1acdcb097",
	"run/line/bucket-random-suffix/seed2":           "47392857a641cd6b",
	"run/line/bucket-random-suffix/seed3":           "3061ba707e3e905f",
	"run/line/bucket-tour-slow/seed1":               "4a713042d67ac104",
	"run/line/bucket-tour-slow/seed2":               "2694cf1fe47254ea",
	"run/line/bucket-tour-slow/seed3":               "1f230141d821fdc7",
	"run/line/bucket-tour/seed1":                    "a85873cc9f7e5695",
	"run/line/bucket-tour/seed2":                    "f595ec54f243c6f7",
	"run/line/bucket-tour/seed3":                    "44e475ff00ea406b",
	"run/line/coordinator/seed1":                    "e7e34576f30dffa2",
	"run/line/coordinator/seed2":                    "afde8a34055330aa",
	"run/line/coordinator/seed3":                    "3d4926109e01191a",
	"run/line/distributed/seed1":                    "1cf86322492f57a3",
	"run/line/distributed/seed2":                    "c04c4aa607462407",
	"run/line/distributed/seed3":                    "67b51f5902cead79",
	"run/line/greedy-linkcap/seed1":                 "2ed40575e29d84f4",
	"run/line/greedy-linkcap/seed2":                 "d717f9727ad9acff",
	"run/line/greedy-linkcap/seed3":                 "0f0df26ea091ffcc",
	"run/line/greedy-pad2/seed1":                    "6cf2152adc558072",
	"run/line/greedy-pad2/seed2":                    "4af230a0541fe4f9",
	"run/line/greedy-pad2/seed3":                    "79303723b4b113fb",
	"run/line/greedy-slow/seed1":                    "e26b6402ba42fe19",
	"run/line/greedy-slow/seed2":                    "b6b44347d0d03c47",
	"run/line/greedy-slow/seed3":                    "2c4f682adf55262e",
	"run/line/greedy-uniform/seed1":                 "84ca886970aa8a16",
	"run/line/greedy-uniform/seed2":                 "d821d5934cb5310f",
	"run/line/greedy-uniform/seed3":                 "8e013ff09f35ef7d",
	"run/line/greedy/seed1":                         "9f39d39b7085bac3",
	"run/line/greedy/seed2":                         "94f017c8b9eb352e",
	"run/line/greedy/seed3":                         "b9a9cd475b04d1b4",
	"run/line/window/seed1":                         "14f4af2dd7eb5471",
	"run/line/window/seed2":                         "9a1589d69472452c",
	"run/line/window/seed3":                         "b0e0f7c05d3c2ddd",
	"stream/cluster/bucket-coloring/bursty":         "381e4dd0c0de180c",
	"stream/cluster/bucket-coloring/poisson":        "75619ef8720a1a73",
	"stream/cluster/bucket-list/bursty":             "0b6d0277b3a167ce",
	"stream/cluster/bucket-list/poisson":            "169ff88a8f063200",
	"stream/cluster/bucket-tour/bursty":             "7d73ccf3c9c278e0",
	"stream/cluster/bucket-tour/poisson":            "eda7272c0476649d",
	"stream/cluster/coordinator/bursty":             "657e134d06b0dfd9",
	"stream/cluster/coordinator/poisson":            "fd0ad4d9ce3a5595",
	"stream/cluster/greedy-uniform/bursty":          "bd4a5cd8e3ea832c",
	"stream/cluster/greedy-uniform/poisson":         "3247db4731fb1dfc",
	"stream/cluster/greedy/bursty":                  "72fc14bc794d4374",
	"stream/cluster/greedy/poisson":                 "22d9ab869b3596f8",
	"stream/cluster/window/bursty":                  "bf3c5e50ca65f184",
	"stream/cluster/window/poisson":                 "e25954eb776c4dd6",
	"stream/grid/bucket-coloring/bursty":            "0d4d9a3896895826",
	"stream/grid/bucket-coloring/poisson":           "827fe6bcece48c97",
	"stream/grid/bucket-list/bursty":                "c5728e5b5d304528",
	"stream/grid/bucket-list/poisson":               "d9d18ab105adffb0",
	"stream/grid/bucket-tour/bursty":                "233b5e46e3354105",
	"stream/grid/bucket-tour/poisson":               "298a80841ffd2da1",
	"stream/grid/coordinator/bursty":                "f328e54885f51843",
	"stream/grid/coordinator/poisson":               "d6f7ae36ca1f66a8",
	"stream/grid/greedy-uniform/bursty":             "b154c56194fecea8",
	"stream/grid/greedy-uniform/poisson":            "bc4f525ea78ad6b5",
	"stream/grid/greedy/bursty":                     "c69a153cf01a9e1a",
	"stream/grid/greedy/poisson":                    "91929f8ab9b3486e",
	"stream/grid/window/bursty":                     "fed5e7cc03151902",
	"stream/grid/window/poisson":                    "57db9cebd6904cc3",
}
