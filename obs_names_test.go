package dtm

// Registry ↔ runtime cross-checks for the obs metric-name registry
// (internal/obs/names.go). The obs.Name type already keeps an
// unregistered name from compiling; these tests close the loop at
// runtime in both directions:
//
//   - every name the golden metrics tests pin by literal string is a
//     registered name, so the registry cannot silently lag the tests;
//   - every name the engines actually emit on representative central
//     (greedy and bucket) and distributed runs is registered, and every
//     registered name is emitted by at least one of those runs, so the
//     registry carries no dead entries.

import (
	"sort"
	"strings"
	"testing"

	"dtm/internal/obs"
	"dtm/internal/window"
)

// isRegistered reports whether name is registered, either exactly or
// under a dynamic family prefix with a non-empty suffix.
func isRegistered(name string) bool {
	for _, n := range obs.RegisteredNames() {
		if n == name {
			return true
		}
	}
	for _, p := range obs.RegisteredPrefixes() {
		if len(name) > len(p) && strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func TestGoldenNamesRegistered(t *testing.T) {
	for name := range goldenGreedyCounters {
		if !isRegistered(name) {
			t.Errorf("golden counter %q is not in the obs registry", name)
		}
	}
	for _, name := range goldenPinnedInstruments {
		if !isRegistered(name) {
			t.Errorf("golden-pinned instrument %q is not in the obs registry", name)
		}
	}
}

// emittedNames collects every metric name in a snapshot.
func emittedNames(into map[string]bool, snap *MetricsSnapshot) {
	for name := range snap.Counters {
		into[name] = true
	}
	for name := range snap.Gauges {
		into[name] = true
	}
	for name := range snap.Histograms {
		into[name] = true
	}
}

// exerciseAllEngines runs the central greedy, central bucket, central
// window, and distributed schedulers on small instances, plus an open-system
// streaming run (which carries the stream.* queue/window/live-state
// instruments), all with metrics enabled, and returns the union of
// emitted metric names.
func exerciseAllEngines(t *testing.T) map[string]bool {
	t.Helper()
	emitted := make(map[string]bool)

	in := goldenInstance(t)
	for _, s := range []Scheduler{
		NewGreedy(GreedyOptions{}),
		NewBucket(BucketOptions{Batch: TourBatch()}),
		window.New(window.Options{}),
	} {
		m := NewMetrics()
		rr, err := Run(in, s, RunOptions{Obs: m})
		if err != nil {
			t.Fatalf("%s run: %v", s.Name(), err)
		}
		emittedNames(emitted, rr.Metrics)
	}

	g, err := Line(8)
	if err != nil {
		t.Fatal(err)
	}
	din, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 4, Rounds: 2,
		Arrival: ArrivalPeriodic, Period: 8, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dm := NewMetrics()
	res, err := Run(din, NewDistributed(DistributedOptions{Batch: TourBatch(), Seed: 3}), RunOptions{Obs: dm})
	if err != nil {
		t.Fatal(err)
	}
	emittedNames(emitted, res.Metrics)

	src, err := NewPoissonSource(g, StreamConfig{K: 2, NumObjects: 4, Rate: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sm := NewMetrics()
	srr, err := RunStream(g, UniformObjects(g, 4, 5), src, NewGreedy(GreedyOptions{}),
		StreamOptions{Obs: sm, MaxArrivals: 64})
	if err != nil {
		t.Fatalf("stream run: %v", err)
	}
	emittedNames(emitted, srr.Metrics)
	return emitted
}

func TestEmittedNamesAreRegistered(t *testing.T) {
	for name := range exerciseAllEngines(t) {
		if !isRegistered(name) {
			t.Errorf("engines emit unregistered metric name %q; add it to internal/obs/names.go", name)
		}
	}
}

func TestRegistryNamesAreEmitted(t *testing.T) {
	emitted := exerciseAllEngines(t)
	var dead []string
	for _, name := range obs.RegisteredNames() {
		if !emitted[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	for _, name := range dead {
		t.Errorf("registered metric name %q is emitted by no engine run; remove it from internal/obs/names.go or cover it here", name)
	}
	// The dynamic families must be exercised too: at least one emitted
	// name under each registered prefix.
	for _, p := range obs.RegisteredPrefixes() {
		found := false
		for name := range emitted {
			if len(name) > len(p) && name[:len(p)] == p {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no emitted metric name under registered prefix %q", p)
		}
	}
}
