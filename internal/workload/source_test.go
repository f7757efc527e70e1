package workload

// Source-contract tests for the streaming generators: determinism per
// seed, non-decreasing arrival times, sorted/deduplicated object picks,
// the bursty shape, and the finite-instance adapter's ordering.

import (
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
)

func sourceGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.Clique(10)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func drain(t *testing.T, s Source, n int) []Arrival {
	t.Helper()
	out := make([]Arrival, 0, n)
	for i := 0; i < n; i++ {
		a, ok := s.Next()
		if !ok {
			t.Fatalf("source exhausted after %d arrivals, want %d", i, n)
		}
		out = append(out, a)
	}
	return out
}

func checkContract(t *testing.T, as []Arrival, g *graph.Graph, k, numObjects int) {
	t.Helper()
	last := core.Time(0)
	for i, a := range as {
		if a.At < last {
			t.Fatalf("arrival %d at t=%d after t=%d: times must be non-decreasing", i, a.At, last)
		}
		last = a.At
		if a.Node < 0 || int(a.Node) >= g.N() {
			t.Fatalf("arrival %d on node %d outside graph", i, a.Node)
		}
		if len(a.Objects) != k {
			t.Fatalf("arrival %d picked %d objects, want %d", i, len(a.Objects), k)
		}
		for j, o := range a.Objects {
			if o < 0 || int(o) >= numObjects {
				t.Fatalf("arrival %d picked object %d outside [0,%d)", i, o, numObjects)
			}
			if j > 0 && a.Objects[j-1] >= o {
				t.Fatalf("arrival %d objects not sorted/deduplicated: %v", i, a.Objects)
			}
		}
	}
}

func sameArrivals(a, b []Arrival) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].At != b[i].At || len(a[i].Objects) != len(b[i].Objects) {
			return false
		}
		for j := range a[i].Objects {
			if a[i].Objects[j] != b[i].Objects[j] {
				return false
			}
		}
	}
	return true
}

func TestGenerativeSources(t *testing.T) {
	g := sourceGraph(t)
	cfg := StreamConfig{K: 3, NumObjects: 16, Rate: 0.5, Burst: 4, Seed: 7}
	mks := map[string]func(StreamConfig) (Source, error){
		"poisson": func(c StreamConfig) (Source, error) { return NewPoissonSource(g, c) },
		"bursty":  func(c StreamConfig) (Source, error) { return NewBurstySource(g, c) },
	}
	for name, mk := range mks {
		t.Run(name, func(t *testing.T) {
			s1, err := mk(cfg)
			if err != nil {
				t.Fatal(err)
			}
			as := drain(t, s1, 400)
			checkContract(t, as, g, cfg.K, cfg.NumObjects)
			// Same seed, same stream; different seed, different stream.
			s2, err := mk(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !sameArrivals(as, drain(t, s2, 400)) {
				t.Fatal("same seed produced different arrivals")
			}
			other := cfg
			other.Seed = 8
			s3, err := mk(other)
			if err != nil {
				t.Fatal(err)
			}
			if sameArrivals(as, drain(t, s3, 400)) {
				t.Fatal("different seeds produced identical arrivals")
			}
			// The long-run rate must be within a factor of two of λ
			// (Poisson is exact in expectation; bursty quantizes the period).
			span := float64(as[len(as)-1].At)
			if rate := float64(len(as)) / span; rate < cfg.Rate/2 || rate > cfg.Rate*2 {
				t.Fatalf("long-run rate %.3f far from λ=%.3f", rate, cfg.Rate)
			}
		})
	}
}

func TestBurstyShape(t *testing.T) {
	g := sourceGraph(t)
	cfg := StreamConfig{K: 2, NumObjects: 8, Rate: 0.5, Burst: 4, Seed: 3}
	s, err := NewBurstySource(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	as := drain(t, s, 40)
	period := core.Time(float64(cfg.Burst)/cfg.Rate + 0.5)
	for i, a := range as {
		burst := core.Time(i / cfg.Burst)
		if a.At != burst*period {
			t.Fatalf("arrival %d at t=%d, want burst %d at t=%d", i, a.At, burst, burst*period)
		}
		wantNode := graph.NodeID((int(burst)*cfg.Burst + i%cfg.Burst) % g.N())
		if a.Node != wantNode {
			t.Fatalf("arrival %d on node %d, want rotating block node %d", i, a.Node, wantNode)
		}
	}
}

func TestInstanceSource(t *testing.T) {
	g := sourceGraph(t)
	in, err := Generate(g, Config{
		K: 2, NumObjects: 8, Rounds: 3,
		Arrival: ArrivalPoisson, Period: 3, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := NewInstanceSource(in)
	var got []Arrival
	for {
		a, ok := s.Next()
		if !ok {
			break
		}
		got = append(got, a)
	}
	if len(got) != len(in.Txns) {
		t.Fatalf("streamed %d arrivals, want %d", len(got), len(in.Txns))
	}
	checkContract(t, got, g, 2, 8)
	// Exhaustion is sticky.
	if _, ok := s.Next(); ok {
		t.Fatal("exhausted source yielded another arrival")
	}
	// The adapter must hand out copies: mutating a streamed object set
	// must not corrupt the instance.
	s2 := NewInstanceSource(in)
	a, _ := s2.Next()
	if len(a.Objects) > 0 {
		a.Objects[0] = -1
		for _, tx := range in.Txns {
			for _, o := range tx.Objects {
				if o == -1 {
					t.Fatal("streamed Objects alias the instance's slices")
				}
			}
		}
	}
}

func TestUniformObjects(t *testing.T) {
	g := sourceGraph(t)
	objs := UniformObjects(g, 6, 4)
	if len(objs) != 6 {
		t.Fatalf("got %d objects, want 6", len(objs))
	}
	for i, o := range objs {
		if o.ID != core.ObjID(i) {
			t.Fatalf("object %d has ID %d, want dense IDs", i, o.ID)
		}
		if o.Origin < 0 || int(o.Origin) >= g.N() {
			t.Fatalf("object %d origin %d outside graph", i, o.Origin)
		}
	}
	again := UniformObjects(g, 6, 4)
	for i := range objs {
		if objs[i].Origin != again[i].Origin {
			t.Fatal("same seed placed objects differently")
		}
	}
}

func TestStreamConfigValidation(t *testing.T) {
	g := sourceGraph(t)
	bad := []StreamConfig{
		{K: 0, NumObjects: 4},
		{K: 5, NumObjects: 4},
		{K: 1, NumObjects: 0},
		{K: 1, NumObjects: 4, Rate: -1},
	}
	for i, cfg := range bad {
		if _, err := NewPoissonSource(g, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}
