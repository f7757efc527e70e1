package sched_test

// Driver goldens: a digest of every driver's output on fixed grids,
// pinned in driverGoldens. The identity suites compare two paths through
// the same driver (incremental vs oracle, P=1 vs P=2, sequential vs
// parallel network); none of them notices the driver itself drifting.
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

// goldenTable collects digests; variants of one case (P=1/P=2, sequential
// and parallel network) must agree with each other and share one entry.
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
	elastic := core.SimOptions{ElasticExec: true, SlowFactor: 2}
	return append(es,
		goldenEngine{"greedy-pad2", func() sched.Scheduler { return greedy.New(greedy.Options{Pad: 2}) }, core.SimOptions{}},
		goldenEngine{"greedy-elastic-slow", func() sched.Scheduler { return greedy.New(greedy.Options{}) }, elastic},
		goldenEngine{"bucket-random-suffix", func() sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.WithSuffixProperty(batch.Randomized{Seed: 42, Tries: 3})})
		}, core.SimOptions{}},
		goldenEngine{"bucket-tour-slow", func() sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.Tour{}})
		}, elastic},
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
	"closed-loop/clique/bucket-coloring/seed1":      "9ec4a37c31d0a44b",
	"closed-loop/clique/bucket-coloring/seed2":      "c85fac9a16cbf0de",
	"closed-loop/clique/bucket-coloring/seed3":      "d15036a17864914c",
	"closed-loop/clique/bucket-tour-rebuild/seed1":  "86554ee0fb586d06",
	"closed-loop/clique/bucket-tour-rebuild/seed2":  "bf019cc6d94f5331",
	"closed-loop/clique/bucket-tour-rebuild/seed3":  "fd45fa7ac7656d05",
	"closed-loop/clique/bucket-tour/seed1":          "0ce2548ad7a55a7d",
	"closed-loop/clique/bucket-tour/seed2":          "8c2b9a48ee19016f",
	"closed-loop/clique/bucket-tour/seed3":          "d138831d5ddc00ec",
	"closed-loop/clique/coordinator/seed1":          "34defa603820c628",
	"closed-loop/clique/coordinator/seed2":          "250e697548f27d47",
	"closed-loop/clique/coordinator/seed3":          "9b76a4fabef603a8",
	"closed-loop/clique/greedy-rebuild/seed1":       "a198b91443110ccc",
	"closed-loop/clique/greedy-rebuild/seed2":       "66e757873a72c561",
	"closed-loop/clique/greedy-rebuild/seed3":       "a24a1b56f796aee7",
	"closed-loop/clique/greedy/seed1":               "98f88db23e8d6580",
	"closed-loop/clique/greedy/seed2":               "cd0610796be8e8a0",
	"closed-loop/clique/greedy/seed3":               "fec26a189d965fab",
	"closed-loop/cluster/bucket-coloring/seed1":     "dd605bca6bb6bf6f",
	"closed-loop/cluster/bucket-coloring/seed2":     "1aa2ce99f82c2d21",
	"closed-loop/cluster/bucket-coloring/seed3":     "47f0ec2c59d98564",
	"closed-loop/cluster/bucket-tour-rebuild/seed1": "94fec352fb48606c",
	"closed-loop/cluster/bucket-tour-rebuild/seed2": "71bc9c3997485394",
	"closed-loop/cluster/bucket-tour-rebuild/seed3": "8a3b60234add6140",
	"closed-loop/cluster/bucket-tour/seed1":         "6ac4b80c1434bfb8",
	"closed-loop/cluster/bucket-tour/seed2":         "b06fb9551c70a1c1",
	"closed-loop/cluster/bucket-tour/seed3":         "fe4c2a4508d200ef",
	"closed-loop/cluster/coordinator/seed1":         "6be5430f3bce2f34",
	"closed-loop/cluster/coordinator/seed2":         "2b0d716387676632",
	"closed-loop/cluster/coordinator/seed3":         "18b1e9b24e6801b0",
	"closed-loop/cluster/greedy-rebuild/seed1":      "681a8934df27578f",
	"closed-loop/cluster/greedy-rebuild/seed2":      "b5186c82e15febf4",
	"closed-loop/cluster/greedy-rebuild/seed3":      "53b619877eedea75",
	"closed-loop/cluster/greedy/seed1":              "c785cdecd1c6b55e",
	"closed-loop/cluster/greedy/seed2":              "39a7f00441abb170",
	"closed-loop/cluster/greedy/seed3":              "a8110da19dd19eb1",
	"closed-loop/grid/bucket-coloring/seed1":        "be58e8d9f85cb7a6",
	"closed-loop/grid/bucket-coloring/seed2":        "bf50aae3245694df",
	"closed-loop/grid/bucket-coloring/seed3":        "dbe08cd03b546cb4",
	"closed-loop/grid/bucket-tour-rebuild/seed1":    "e3b35e7233645c1f",
	"closed-loop/grid/bucket-tour-rebuild/seed2":    "80f99705c4da95af",
	"closed-loop/grid/bucket-tour-rebuild/seed3":    "13308c43bec9faba",
	"closed-loop/grid/bucket-tour/seed1":            "53105dc33e569b19",
	"closed-loop/grid/bucket-tour/seed2":            "b9718112efb79b60",
	"closed-loop/grid/bucket-tour/seed3":            "0611a51a4b6fb168",
	"closed-loop/grid/coordinator/seed1":            "a273d31816bfd549",
	"closed-loop/grid/coordinator/seed2":            "398c570fece73864",
	"closed-loop/grid/coordinator/seed3":            "62fabab5f951682c",
	"closed-loop/grid/greedy-rebuild/seed1":         "6bca1c6f5992da4b",
	"closed-loop/grid/greedy-rebuild/seed2":         "ca4136421bc9298d",
	"closed-loop/grid/greedy-rebuild/seed3":         "a2b87838dc89874e",
	"closed-loop/grid/greedy/seed1":                 "031328b09a8fcead",
	"closed-loop/grid/greedy/seed2":                 "076ba2e24cead62b",
	"closed-loop/grid/greedy/seed3":                 "6b55d3c28f55fcc3",
	"closed-loop/line/bucket-coloring/seed1":        "775a07fda527adb2",
	"closed-loop/line/bucket-coloring/seed2":        "ca672607380d2083",
	"closed-loop/line/bucket-coloring/seed3":        "14d7f851a1b58045",
	"closed-loop/line/bucket-tour-rebuild/seed1":    "0541a331ce027a5f",
	"closed-loop/line/bucket-tour-rebuild/seed2":    "9c163da96114b8b8",
	"closed-loop/line/bucket-tour-rebuild/seed3":    "3d8c8ad4c10cde92",
	"closed-loop/line/bucket-tour/seed1":            "859b45577b18422e",
	"closed-loop/line/bucket-tour/seed2":            "04fc8b0ad33e8f70",
	"closed-loop/line/bucket-tour/seed3":            "e60d66b935ff802c",
	"closed-loop/line/coordinator/seed1":            "6331256ef2cfb42e",
	"closed-loop/line/coordinator/seed2":            "8ccbe50b60d05fce",
	"closed-loop/line/coordinator/seed3":            "4ec4486249d61b91",
	"closed-loop/line/greedy-rebuild/seed1":         "b4e9ca096491b903",
	"closed-loop/line/greedy-rebuild/seed2":         "e06b6927cb9122b0",
	"closed-loop/line/greedy-rebuild/seed3":         "c469921cf5ea192a",
	"closed-loop/line/greedy/seed1":                 "f959d8348723a310",
	"closed-loop/line/greedy/seed2":                 "8cef09e7af852cbb",
	"closed-loop/line/greedy/seed3":                 "0f06ac011f38b965",
	"distributed/clique/crashed/seed1":              "f63e73f075803a32",
	"distributed/clique/crashed/seed2":              "3cf09d4a5de6b35c",
	"distributed/clique/crashed/seed3":              "43459220f8a2922a",
	"distributed/clique/drop40/seed1":               "060cd4b3dbc95384",
	"distributed/clique/drop40/seed2":               "d22b89378fcceea3",
	"distributed/clique/drop40/seed3":               "dbbacf8a580c5d95",
	"distributed/clique/lossy/seed1":                "facbce2aaa664b03",
	"distributed/clique/lossy/seed2":                "31280be38a29378d",
	"distributed/clique/lossy/seed3":                "95cfeb2be3a12544",
	"distributed/clique/none/seed1":                 "49926356366c6f68",
	"distributed/clique/none/seed2":                 "36216e14d74d5df5",
	"distributed/clique/none/seed3":                 "cf39cf33b99c34c8",
	"distributed/cluster/crashed/seed1":             "e61158c62f6e1e2d",
	"distributed/cluster/crashed/seed2":             "29128cb73b62961b",
	"distributed/cluster/crashed/seed3":             "4cfd4324c685d849",
	"distributed/cluster/drop40/seed1":              "c9c1757a880430ea",
	"distributed/cluster/drop40/seed2":              "4dcafbe501fdbbb0",
	"distributed/cluster/drop40/seed3":              "2fd4fcfeef1b7e6a",
	"distributed/cluster/lossy/seed1":               "d810b27aa04a897a",
	"distributed/cluster/lossy/seed2":               "03eed5e863733aa4",
	"distributed/cluster/lossy/seed3":               "cf2fa079dd0fcaf2",
	"distributed/cluster/none/seed1":                "28dfb7e664e452bb",
	"distributed/cluster/none/seed2":                "8290fb0578df62f3",
	"distributed/cluster/none/seed3":                "5535f149c1a3ed71",
	"distributed/grid/crashed/seed1":                "51f0b02d43a57523",
	"distributed/grid/crashed/seed2":                "43436d1aa2ed1e72",
	"distributed/grid/crashed/seed3":                "0a1957f4e4209d19",
	"distributed/grid/drop40/seed1":                 "475bab4e2ef75fe7",
	"distributed/grid/drop40/seed2":                 "2642bb0364fbe74a",
	"distributed/grid/drop40/seed3":                 "e0bcb5158cb58320",
	"distributed/grid/lossy/seed1":                  "53ffe317a693ec17",
	"distributed/grid/lossy/seed2":                  "e6623cbede5feee6",
	"distributed/grid/lossy/seed3":                  "4547259cc466c674",
	"distributed/grid/none/seed1":                   "b7e87c3f4a8c38d1",
	"distributed/grid/none/seed2":                   "d102f75fb3122211",
	"distributed/grid/none/seed3":                   "e9c83e9e991687b5",
	"distributed/line/crashed/seed1":                "3cb835733d67e585",
	"distributed/line/crashed/seed2":                "b7255f30e5eb6c1f",
	"distributed/line/crashed/seed3":                "71b6bc9b5b7ace3b",
	"distributed/line/drop40/seed1":                 "072266e8d0528eb4",
	"distributed/line/drop40/seed2":                 "6a81478f5755ab29",
	"distributed/line/drop40/seed3":                 "0e2c375bac40747e",
	"distributed/line/lossy/seed1":                  "0eb016210b5d341d",
	"distributed/line/lossy/seed2":                  "4aab9df43e8b1510",
	"distributed/line/lossy/seed3":                  "0bf74b0482378dfd",
	"distributed/line/none/seed1":                   "a8b1b0375bd76885",
	"distributed/line/none/seed2":                   "f91d8023ee0da333",
	"distributed/line/none/seed3":                   "74c1f2b985a3dc68",
	"run/clique/bucket-coloring/seed1":              "25222cef4ca36f0b",
	"run/clique/bucket-coloring/seed2":              "734fff06c65e1d11",
	"run/clique/bucket-coloring/seed3":              "4391050217f82d03",
	"run/clique/bucket-list/seed1":                  "b637fa49084dac4d",
	"run/clique/bucket-list/seed2":                  "908c35362947a24b",
	"run/clique/bucket-list/seed3":                  "8bdf1760e11fb4b3",
	"run/clique/bucket-random-suffix/seed1":         "53613535d6b0ee54",
	"run/clique/bucket-random-suffix/seed2":         "149725e299f954e5",
	"run/clique/bucket-random-suffix/seed3":         "c88ccb270c4431c9",
	"run/clique/bucket-tour-slow/seed1":             "7ae7936341831db6",
	"run/clique/bucket-tour-slow/seed2":             "44f846bb4b5c7564",
	"run/clique/bucket-tour-slow/seed3":             "5c33307d65ae08c4",
	"run/clique/bucket-tour/seed1":                  "d42225461afa01cf",
	"run/clique/bucket-tour/seed2":                  "3454c1868d3dd235",
	"run/clique/bucket-tour/seed3":                  "4a3465c39c9dbd1c",
	"run/clique/coordinator/seed1":                  "c80cf54d43e1b180",
	"run/clique/coordinator/seed2":                  "2150e00bb9752a85",
	"run/clique/coordinator/seed3":                  "1264ae768c8779a3",
	"run/clique/distributed/seed1":                  "1fec248dc8227235",
	"run/clique/distributed/seed2":                  "0639407265810ee1",
	"run/clique/distributed/seed3":                  "8a4ec6ea9e37d95a",
	"run/clique/greedy-elastic-slow/seed1":          "31d4d7c41b25758c",
	"run/clique/greedy-elastic-slow/seed2":          "4bce44e36370b90a",
	"run/clique/greedy-elastic-slow/seed3":          "d9712979c9435c3e",
	"run/clique/greedy-pad2/seed1":                  "e5380f3338bb69f7",
	"run/clique/greedy-pad2/seed2":                  "8da1bab11fefd459",
	"run/clique/greedy-pad2/seed3":                  "e9bb6934992c27ff",
	"run/clique/greedy-uniform/seed1":               "0f215b83c32bdbb9",
	"run/clique/greedy-uniform/seed2":               "a7c81472b7068768",
	"run/clique/greedy-uniform/seed3":               "33e402c538bdf5c2",
	"run/clique/greedy/seed1":                       "090e054cff74b6f8",
	"run/clique/greedy/seed2":                       "00b3baa696ee5d71",
	"run/clique/greedy/seed3":                       "a2f59df3bbd7bbe8",
	"run/clique/window/seed1":                       "97e5125a91c17941",
	"run/clique/window/seed2":                       "a1002330f90d980e",
	"run/clique/window/seed3":                       "dea19449c0fbfdac",
	"run/cluster/bucket-coloring/seed1":             "6fb6440d18a6f57b",
	"run/cluster/bucket-coloring/seed2":             "9f54c4366f3c021d",
	"run/cluster/bucket-coloring/seed3":             "bc62640379d00e41",
	"run/cluster/bucket-list/seed1":                 "d8349f58c08ee2ca",
	"run/cluster/bucket-list/seed2":                 "6a1dc5f7d4033880",
	"run/cluster/bucket-list/seed3":                 "6d2c70797b15cb63",
	"run/cluster/bucket-random-suffix/seed1":        "68e9ad9e8c44ce02",
	"run/cluster/bucket-random-suffix/seed2":        "c2c14e8a22ae07bf",
	"run/cluster/bucket-random-suffix/seed3":        "d654d087c7145f95",
	"run/cluster/bucket-tour-slow/seed1":            "f7734edb2155d472",
	"run/cluster/bucket-tour-slow/seed2":            "2a18178abd62cc94",
	"run/cluster/bucket-tour-slow/seed3":            "0991c6932c3982c4",
	"run/cluster/bucket-tour/seed1":                 "9776ae8018b1de67",
	"run/cluster/bucket-tour/seed2":                 "b4a34375bb961bdb",
	"run/cluster/bucket-tour/seed3":                 "8050b49bac9a535d",
	"run/cluster/coordinator/seed1":                 "1d047a37695366d5",
	"run/cluster/coordinator/seed2":                 "c613efaf90ced00c",
	"run/cluster/coordinator/seed3":                 "149abe7245f741b9",
	"run/cluster/distributed/seed1":                 "fe3d36d7825f5c5c",
	"run/cluster/distributed/seed2":                 "488971ec3b4feca1",
	"run/cluster/distributed/seed3":                 "34bd9733d2f11c1b",
	"run/cluster/greedy-elastic-slow/seed1":         "d31b25bb942b1c1d",
	"run/cluster/greedy-elastic-slow/seed2":         "81c22b4be2fbd86a",
	"run/cluster/greedy-elastic-slow/seed3":         "4d4d313f24bb1ab4",
	"run/cluster/greedy-pad2/seed1":                 "0bad10bec16f78dd",
	"run/cluster/greedy-pad2/seed2":                 "d81305e5bf72f7e2",
	"run/cluster/greedy-pad2/seed3":                 "06bf1d61307c0aa9",
	"run/cluster/greedy-uniform/seed1":              "963e9f802b5c7859",
	"run/cluster/greedy-uniform/seed2":              "eb5b753d9078dbf9",
	"run/cluster/greedy-uniform/seed3":              "bf5c943216fed66c",
	"run/cluster/greedy/seed1":                      "64ec8a7709d629a3",
	"run/cluster/greedy/seed2":                      "d6e5d12555fd4c85",
	"run/cluster/greedy/seed3":                      "92f997330fa7bd41",
	"run/cluster/window/seed1":                      "80ed3732dfc8a48b",
	"run/cluster/window/seed2":                      "2623aecd39063332",
	"run/cluster/window/seed3":                      "c7820c4a39dfb407",
	"run/grid/bucket-coloring/seed1":                "7fef811a84d1c690",
	"run/grid/bucket-coloring/seed2":                "f4f45d61e521e3ae",
	"run/grid/bucket-coloring/seed3":                "0bf8e6c9476d1dee",
	"run/grid/bucket-list/seed1":                    "ee2ff3551720ac6a",
	"run/grid/bucket-list/seed2":                    "c73775816de74f17",
	"run/grid/bucket-list/seed3":                    "58d4a06e5f0602e6",
	"run/grid/bucket-random-suffix/seed1":           "b4a2a400e6239612",
	"run/grid/bucket-random-suffix/seed2":           "26590a47208524bd",
	"run/grid/bucket-random-suffix/seed3":           "76a090355bdd4307",
	"run/grid/bucket-tour-slow/seed1":               "cae88ff5366dc774",
	"run/grid/bucket-tour-slow/seed2":               "f2a701aeedf0de87",
	"run/grid/bucket-tour-slow/seed3":               "6c87634eeefb041d",
	"run/grid/bucket-tour/seed1":                    "6e791f0001c2d6ea",
	"run/grid/bucket-tour/seed2":                    "709c2d0745dbd212",
	"run/grid/bucket-tour/seed3":                    "b1a2f56c3d59b083",
	"run/grid/coordinator/seed1":                    "fb1fc6044b40e85d",
	"run/grid/coordinator/seed2":                    "55a5eca2413ec9bf",
	"run/grid/coordinator/seed3":                    "9a90d82a3eb46821",
	"run/grid/distributed/seed1":                    "6703e2b7e8fb5323",
	"run/grid/distributed/seed2":                    "b8341ee96fb6954f",
	"run/grid/distributed/seed3":                    "c912cbf1df96b809",
	"run/grid/greedy-elastic-slow/seed1":            "3180c4019abf47db",
	"run/grid/greedy-elastic-slow/seed2":            "25708ec258f803eb",
	"run/grid/greedy-elastic-slow/seed3":            "b05216706bbb1b7f",
	"run/grid/greedy-pad2/seed1":                    "4359b6197725e3b9",
	"run/grid/greedy-pad2/seed2":                    "95c853888b33facb",
	"run/grid/greedy-pad2/seed3":                    "51266d85b79b2b54",
	"run/grid/greedy-uniform/seed1":                 "45bdb470d9e10fb8",
	"run/grid/greedy-uniform/seed2":                 "573b7193606cef86",
	"run/grid/greedy-uniform/seed3":                 "cf05dfb3ae7fbef6",
	"run/grid/greedy/seed1":                         "868169d0bd68815a",
	"run/grid/greedy/seed2":                         "c1c41712078f42f8",
	"run/grid/greedy/seed3":                         "a968d0e425697ca1",
	"run/grid/window/seed1":                         "ddba344b5db99a10",
	"run/grid/window/seed2":                         "14edc3d246173fc2",
	"run/grid/window/seed3":                         "76e61e8727f79705",
	"run/line/bucket-coloring/seed1":                "87467ec96b90cb14",
	"run/line/bucket-coloring/seed2":                "2ba8abe820748971",
	"run/line/bucket-coloring/seed3":                "e24bc9fd9b91e2ea",
	"run/line/bucket-list/seed1":                    "829db50007d5bde9",
	"run/line/bucket-list/seed2":                    "bf2a689d1d7eefea",
	"run/line/bucket-list/seed3":                    "d83054a77afb093a",
	"run/line/bucket-random-suffix/seed1":           "05b2e7f01c582db9",
	"run/line/bucket-random-suffix/seed2":           "84a2eb7097c8ce2d",
	"run/line/bucket-random-suffix/seed3":           "55ee042ad3722393",
	"run/line/bucket-tour-slow/seed1":               "3f1af351c9114814",
	"run/line/bucket-tour-slow/seed2":               "6037c76b55cfd3ea",
	"run/line/bucket-tour-slow/seed3":               "49d650a2db84acbe",
	"run/line/bucket-tour/seed1":                    "a3279d6f6d78d9df",
	"run/line/bucket-tour/seed2":                    "bee60a78b6eb165e",
	"run/line/bucket-tour/seed3":                    "5a95bea700c1cbac",
	"run/line/coordinator/seed1":                    "e7e34576f30dffa2",
	"run/line/coordinator/seed2":                    "afde8a34055330aa",
	"run/line/coordinator/seed3":                    "3d4926109e01191a",
	"run/line/distributed/seed1":                    "64043bff43d20e83",
	"run/line/distributed/seed2":                    "4781da4068109c34",
	"run/line/distributed/seed3":                    "7602952e0dfb33d8",
	"run/line/greedy-elastic-slow/seed1":            "9962900cd2a65aca",
	"run/line/greedy-elastic-slow/seed2":            "c93a346974db437a",
	"run/line/greedy-elastic-slow/seed3":            "ca3447905556de83",
	"run/line/greedy-pad2/seed1":                    "6cf2152adc558072",
	"run/line/greedy-pad2/seed2":                    "4af230a0541fe4f9",
	"run/line/greedy-pad2/seed3":                    "79303723b4b113fb",
	"run/line/greedy-uniform/seed1":                 "84ca886970aa8a16",
	"run/line/greedy-uniform/seed2":                 "d821d5934cb5310f",
	"run/line/greedy-uniform/seed3":                 "8e013ff09f35ef7d",
	"run/line/greedy/seed1":                         "9f39d39b7085bac3",
	"run/line/greedy/seed2":                         "94f017c8b9eb352e",
	"run/line/greedy/seed3":                         "b9a9cd475b04d1b4",
	"run/line/window/seed1":                         "14f4af2dd7eb5471",
	"run/line/window/seed2":                         "9a1589d69472452c",
	"run/line/window/seed3":                         "b0e0f7c05d3c2ddd",
	"stream/cluster/bucket-coloring/bursty":         "963c32ce79686dd1",
	"stream/cluster/bucket-coloring/poisson":        "4866f28a638f69d5",
	"stream/cluster/bucket-list/bursty":             "a40b8c2074aead68",
	"stream/cluster/bucket-list/poisson":            "9e81805a86c49ed5",
	"stream/cluster/bucket-tour/bursty":             "83ec4712699a4fb1",
	"stream/cluster/bucket-tour/poisson":            "ec62d6178792422c",
	"stream/cluster/coordinator/bursty":             "657e134d06b0dfd9",
	"stream/cluster/coordinator/poisson":            "fd0ad4d9ce3a5595",
	"stream/cluster/greedy-uniform/bursty":          "bd4a5cd8e3ea832c",
	"stream/cluster/greedy-uniform/poisson":         "3247db4731fb1dfc",
	"stream/cluster/greedy/bursty":                  "72fc14bc794d4374",
	"stream/cluster/greedy/poisson":                 "22d9ab869b3596f8",
	"stream/cluster/window/bursty":                  "bf3c5e50ca65f184",
	"stream/cluster/window/poisson":                 "e25954eb776c4dd6",
	"stream/grid/bucket-coloring/bursty":            "6f087e3f9a83dc6e",
	"stream/grid/bucket-coloring/poisson":           "23e0e732439b5909",
	"stream/grid/bucket-list/bursty":                "2afd2b84f012ec1a",
	"stream/grid/bucket-list/poisson":               "5f96fd344ec7acac",
	"stream/grid/bucket-tour/bursty":                "aaecefad63bc516e",
	"stream/grid/bucket-tour/poisson":               "7ee3fb9a49cce80b",
	"stream/grid/coordinator/bursty":                "f328e54885f51843",
	"stream/grid/coordinator/poisson":               "d6f7ae36ca1f66a8",
	"stream/grid/greedy-uniform/bursty":             "b154c56194fecea8",
	"stream/grid/greedy-uniform/poisson":            "bc4f525ea78ad6b5",
	"stream/grid/greedy/bursty":                     "c69a153cf01a9e1a",
	"stream/grid/greedy/poisson":                    "91929f8ab9b3486e",
	"stream/grid/window/bursty":                     "fed5e7cc03151902",
	"stream/grid/window/poisson":                    "57db9cebd6904cc3",
}
