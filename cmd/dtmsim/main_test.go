package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtm/internal/trace"
)

func TestBuildGraphAllTopologies(t *testing.T) {
	base := params{n: 8, dim: 3, rows: 3, cols: 3, alpha: 3, beta: 3, gamma: 3, depth: 2, seed: 1}
	for _, topo := range []string{"clique", "line", "ring", "grid", "hypercube", "butterfly", "cluster", "star", "tree", "random"} {
		p := base
		p.topology = topo
		g, err := buildGraph(p)
		if err != nil {
			t.Errorf("%s: %v", topo, err)
			continue
		}
		if g.N() < 2 {
			t.Errorf("%s: degenerate graph", topo)
		}
	}
	p := base
	p.topology = "nope"
	if _, err := buildGraph(p); err == nil {
		t.Error("unknown topology: want error")
	}
}

func TestArrivalKind(t *testing.T) {
	for _, a := range []string{"batch", "periodic", "poisson", "bursty"} {
		if _, err := arrivalKind(a); err != nil {
			t.Errorf("%s: %v", a, err)
		}
	}
	if _, err := arrivalKind("nope"); err != nil {
		// expected
	} else {
		t.Error("unknown arrival: want error")
	}
}

func TestRunAllSchedulers(t *testing.T) {
	for _, s := range []string{"greedy", "greedy-uniform", "coordinator", "bucket-tour", "bucket-coloring", "distributed"} {
		p := params{
			topology: "clique", n: 8,
			sched: s, k: 2, rounds: 1,
			arrival: "periodic", seed: 1,
		}
		if err := run(p); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
	p := params{topology: "clique", n: 8, sched: "nope", k: 2, rounds: 1, arrival: "periodic"}
	if err := run(p); err == nil {
		t.Error("unknown scheduler: want error")
	}
}

func TestRunWithTraceAndCapacity(t *testing.T) {
	dir := t.TempDir()
	p := params{
		topology: "line", n: 10,
		sched: "greedy", k: 2, rounds: 1,
		arrival: "periodic", seed: 1,
		traceOut: filepath.Join(dir, "run.json"),
	}
	if err := run(p); err != nil {
		t.Fatalf("trace run: %v", err)
	}
	// Capacity-limited run works but refuses to write traces.
	p.capacity = 1
	if err := run(p); err == nil {
		t.Error("trace with capacity: want error")
	}
	p.traceOut = ""
	if err := run(p); err != nil {
		t.Errorf("capacity run: %v", err)
	}
	p.csv = true
	if err := run(p); err != nil {
		t.Errorf("csv run: %v", err)
	}
}

// clusterParams is the cluster(3,4,4) workload of the CLI examples.
func clusterParams(sched string) params {
	return params{
		topology: "cluster", alpha: 3, beta: 4, gamma: 4,
		sched: sched, k: 2, rounds: 3,
		arrival: "periodic", seed: 1,
	}
}

// The protocol runs on the one run path, so -capacity and -trace apply to
// it; its trace records half-speed objects and validates, with faults too.
func TestDistributedCapacityAndTrace(t *testing.T) {
	for _, c := range []int{1, 2} {
		for seed := int64(1); seed <= 5; seed++ {
			p := clusterParams("distributed")
			p.capacity, p.seed = c, seed
			if err := run(p); err != nil {
				t.Errorf("capacity %d seed %d: %v", c, seed, err)
			}
		}
	}
	dir := t.TempDir()
	for name, faulty := range map[string]bool{"clean": false, "faulty": true} {
		p := clusterParams("distributed")
		p.traceOut = filepath.Join(dir, name+".json")
		if faulty {
			p.drop, p.crash = 0.05, "1:0:50"
		}
		if err := run(p); err != nil {
			t.Fatalf("%s trace run: %v", name, err)
		}
		f, err := os.Open(p.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		r, err := trace.Read(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if r.SlowObj != 2 {
			t.Errorf("%s trace records slowObjects %d, want 2", name, r.SlowObj)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("%s trace: %v", name, err)
		}
		if faulty && len(r.Abandoned) == 0 {
			t.Errorf("%s trace records no abandoned transactions", name)
		}
	}
}

// Flag combinations a run cannot honour are refused, not ignored.
func TestRefusedFlagCombinations(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]struct {
		p    func() params
		want string
	}{
		"trace with capacity, distributed": {func() params {
			p := clusterParams("distributed")
			p.traceOut, p.capacity = filepath.Join(dir, "d.json"), 2
			return p
		}, "-trace"},
		"faults with a central engine": {func() params {
			p := clusterParams("greedy")
			p.drop = 0.5
			return p
		}, "requires -sched distributed"},
		"faults with -stream": {func() params {
			p := clusterParams("greedy")
			p.stream, p.arrivals, p.rate, p.drop, p.crash = "poisson", 2000, 1, 0.5, "1:0:100"
			return p
		}, "not supported with -stream"},
		"NaN rate": {func() params {
			p := clusterParams("greedy")
			p.stream, p.arrivals, p.rate = "poisson", 2000, math.NaN()
			return p
		}, "Rate"},
		"-stream without the stream cap": {func() params {
			p := clusterParams("distributed")
			p.stream, p.arrivals, p.rate = "poisson", 2000, 1
			return p
		}, "stream cap"},
		"negative capacity": {func() params {
			p := clusterParams("greedy")
			p.capacity = -3
			return p
		}, "-capacity -3"},
		"negative drop rate": {func() params {
			p := clusterParams("distributed")
			p.drop = -0.5
			return p
		}, "drop rate -0.5"},
		"drop rate above one": {func() params {
			p := clusterParams("distributed")
			p.drop = 1.5
			return p
		}, "drop rate 1.5"},
		"duplicate rate above one": {func() params {
			p := clusterParams("distributed")
			p.dup = 3
			return p
		}, "duplicate rate 3"},
	}
	for name, c := range cases {
		err := run(c.p())
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", name, err, c.want)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "d.json")); err == nil {
		t.Error("refused run wrote a trace")
	}
}
