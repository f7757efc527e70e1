package dtm

// Differential test of the two scheduling engines: the incremental
// depgraph-backed engine (default) and the per-arrival rebuild oracle
// (the RebuildOracle option) must produce byte-identical decision logs for
// every scheduler, topology, and seed. The greedy color depends only on
// the set of forbidden intervals — both engines feed the same interval
// sets into the shared coloring.Sweep search — and the bucket
// probe problems differ only by availability entries no batch scheduler
// reads, so any divergence is a bug in the index maintenance.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"dtm/internal/batch"
)

func diffTopologies(t *testing.T) map[string]*Graph {
	t.Helper()
	line, err := Line(12)
	if err != nil {
		t.Fatal(err)
	}
	clique, err := Clique(12)
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Grid(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := Cluster(ClusterSpec{Alpha: 3, Beta: 4, Gamma: 4})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{"line": line, "clique": clique, "grid": grid, "cluster": cluster}
}

func TestIncrementalMatchesRebuildOracle(t *testing.T) {
	type diffCase struct {
		name string
		mk   func(rebuild bool) Scheduler
		opts RunOptions
	}
	// Base cases come from the registry: every engine that declares an
	// Oracle runs it against its New, so a new oracle-backed engine joins
	// the differential with no edit here.
	var cases []diffCase
	for _, d := range Engines() {
		if d.Oracle == nil {
			continue
		}
		cases = append(cases, diffCase{d.ID, func(r bool) Scheduler {
			if r {
				return d.Oracle()
			}
			return d.New()
		}, RunOptions{}})
	}
	if len(cases) < 6 {
		t.Fatalf("registry lists only %d oracle-capable engines, want the six central variants", len(cases))
	}
	// Feature-knob extras the registry defaults cannot spell: padding,
	// half-speed objects, elastic commits, slow buckets, the randomized
	// batch scheduler, and the RebuildOracle field set by selector on the
	// facade options rather than through the registry's Oracle.
	cases = append(cases,
		diffCase{"greedy-pad2", func(r bool) Scheduler {
			return NewGreedy(GreedyOptions{Pad: 2, RebuildOracle: r})
		}, RunOptions{}},
		diffCase{"greedy-slow", func(r bool) Scheduler {
			return NewGreedy(GreedyOptions{RebuildOracle: r})
		}, RunOptions{Sim: SimOptions{SlowFactor: 2}}},
		// Bounded links make commits elastic: objects queued at a busy
		// link arrive late, so commits run past their decided times,
		// exercising the index's straggler re-arm (here at half speed).
		diffCase{"greedy-elastic-slow", func(r bool) Scheduler {
			return NewGreedy(GreedyOptions{RebuildOracle: r})
		}, RunOptions{Sim: SimOptions{LinkCapacity: 1, SlowFactor: 2}}},
		diffCase{"bucket-random-suffix", func(r bool) Scheduler {
			return NewBucket(BucketOptions{
				Batch:         batch.WithSuffixProperty(batch.Randomized{Seed: 42, Tries: 3}),
				RebuildOracle: r,
			})
		}, RunOptions{}},
		diffCase{"bucket-tour-slow", func(r bool) Scheduler {
			return NewBucket(BucketOptions{Batch: TourBatch(), RebuildOracle: r})
		}, RunOptions{Sim: SimOptions{SlowFactor: 2}}},
		// Code that sets the field by selector, as in o.RebuildOracle = r,
		// must keep selecting the oracle through NewGreedy and NewBucket.
		diffCase{"greedy-deprecated-field", func(r bool) Scheduler {
			var o GreedyOptions
			o.RebuildOracle = r
			return NewGreedy(o)
		}, RunOptions{}},
		diffCase{"bucket-tour-deprecated-field", func(r bool) Scheduler {
			o := BucketOptions{Batch: TourBatch()}
			o.RebuildOracle = r
			return NewBucket(o)
		}, RunOptions{}},
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
					inc, incErr := Run(in, c.mk(false), c.opts)
					orc, orcErr := Run(in, c.mk(true), c.opts)
					if (incErr == nil) != (orcErr == nil) {
						t.Fatalf("engines disagree on failure: incremental err=%v, oracle err=%v", incErr, orcErr)
					}
					if incErr != nil {
						return // both failed identically at the driver level
					}
					ji, err := json.Marshal(inc.Decisions)
					if err != nil {
						t.Fatal(err)
					}
					jo, err := json.Marshal(orc.Decisions)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(ji, jo) {
						t.Fatalf("decision logs differ\nincremental: %s\noracle:      %s", ji, jo)
					}
					if inc.Makespan != orc.Makespan {
						t.Fatalf("makespan differs: incremental %d, oracle %d", inc.Makespan, orc.Makespan)
					}
				})
			}
		}
	}
}

// TestEngineAuditParity pins each engine's audit instruments to its
// rebuild oracle's: greedy's whole greedy.* set in both modes (the
// Theorem 1/2 counts and the greedy.bound histogram, whose Δ/Γ terms the
// incremental engine accumulates without ever materializing the conflict
// graph), and Algorithm 2's bucket.* set (the Lemma 3/4 counts,
// bucket.within_lemma4 included) between the session engine and the
// per-probe rebuild.
func TestEngineAuditParity(t *testing.T) {
	g, err := Clique(10)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 3, NumObjects: 5, Rounds: 4,
		Arrival: ArrivalPeriodic, Period: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ id, prefix, must string }{
		{"greedy", "greedy.", "greedy.bound"},
		{"greedy-uniform", "greedy.", "greedy.bound"},
		{"bucket-tour", "bucket.", "bucket.within_lemma4"},
		{"bucket-coloring", "bucket.", "bucket.within_lemma4"},
	} {
		d, ok := EngineByID(c.id)
		if !ok {
			t.Fatalf("no engine %q", c.id)
		}
		audit := func(rebuild bool) string {
			mk := d.New
			if rebuild {
				mk = d.Oracle
			}
			rr, err := Run(in, mk(), RunOptions{Obs: NewMetrics()})
			if err != nil {
				t.Fatal(err)
			}
			set := map[string]any{}
			for name, v := range rr.Metrics.Counters {
				if strings.HasPrefix(name, c.prefix) {
					set[name] = v
				}
			}
			for name, v := range rr.Metrics.Histograms {
				if strings.HasPrefix(name, c.prefix) {
					set[name] = v
				}
			}
			if rr.Metrics.Counters[c.must]+rr.Metrics.Histograms[c.must].Count == 0 {
				t.Errorf("%s rebuild=%v: %s counted nothing", c.id, rebuild, c.must)
			}
			b, err := json.Marshal(set)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		if inc, orc := audit(false), audit(true); inc != orc {
			t.Errorf("%s: audit instruments differ\nincremental: %s\noracle:      %s", c.id, inc, orc)
		}
	}
}
