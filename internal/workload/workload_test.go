package workload

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"dtm/internal/core"
	"dtm/internal/graph"
)

func cliqueGraph(t testing.TB, n int) *graph.Graph {
	t.Helper()
	g, err := graph.Clique(n)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGenerateBasicShape(t *testing.T) {
	g := cliqueGraph(t, 8)
	in, err := Generate(g, Config{K: 3, NumObjects: 10, Rounds: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Objects) != 10 {
		t.Errorf("objects = %d, want 10", len(in.Objects))
	}
	if len(in.Txns) != 8*4 {
		t.Errorf("txns = %d, want 32", len(in.Txns))
	}
	for _, tx := range in.Txns {
		if len(tx.Objects) != 3 {
			t.Errorf("tx %d requests %d objects, want 3", tx.ID, len(tx.Objects))
		}
	}
}

func TestGenerateValidationErrors(t *testing.T) {
	g := cliqueGraph(t, 4)
	cases := []Config{
		{K: 0, NumObjects: 5, Rounds: 1},
		{K: 6, NumObjects: 5, Rounds: 1},
		{K: 1, NumObjects: 0, Rounds: 1},
		{K: 1, NumObjects: 5, Rounds: 0},
	}
	for i, cfg := range cases {
		if _, err := Generate(g, cfg); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

// TestNonFiniteSettingsRefused sets each float field of Config and
// StreamConfig to NaN, +Inf and -Inf, under the popularity that reads it,
// and wants an error naming the field. Each call runs under a deadline:
// math/rand's Zipf never returns at a NaN or infinite exponent, so an
// accepted ZipfS hangs Generate or a source's first Next.
func TestNonFiniteSettingsRefused(t *testing.T) {
	g := cliqueGraph(t, 4)
	type call struct {
		name, field string
		run         func(v float64) error
	}
	calls := []call{
		{"Generate", "ZipfS", func(v float64) error {
			_, err := Generate(g, Config{K: 2, NumObjects: 8, Rounds: 2, Pop: PopZipf, ZipfS: v})
			return err
		}},
		{"Generate", "HotFrac", func(v float64) error {
			_, err := Generate(g, Config{K: 2, NumObjects: 8, Rounds: 2, Pop: PopHotspot, HotFrac: v})
			return err
		}},
	}
	sources := []struct {
		name string
		mk   func(*graph.Graph, StreamConfig) (Source, error)
	}{{"NewPoissonSource", NewPoissonSource}, {"NewBurstySource", NewBurstySource}}
	fields := []struct {
		field string
		cfg   func(v float64) StreamConfig
	}{
		{"Rate", func(v float64) StreamConfig { return StreamConfig{K: 2, NumObjects: 8, Rate: v} }},
		{"ZipfS", func(v float64) StreamConfig { return StreamConfig{K: 2, NumObjects: 8, Pop: PopZipf, ZipfS: v} }},
		{"HotFrac", func(v float64) StreamConfig {
			return StreamConfig{K: 2, NumObjects: 8, Pop: PopHotspot, HotFrac: v}
		}},
	}
	for _, src := range sources {
		for _, f := range fields {
			calls = append(calls, call{src.name, f.field, func(v float64) error {
				s, err := src.mk(g, f.cfg(v))
				if err == nil {
					s.Next()
				}
				return err
			}})
		}
	}
	for _, c := range calls {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			done := make(chan error, 1)
			go func() { done <- c.run(v) }()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), c.field) {
					t.Errorf("%s with %s=%g: error %v, want one naming %s", c.name, c.field, v, err, c.field)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s with %s=%g did not return within 5 s", c.name, c.field, v)
			}
		}
	}
}

// TestHotSetSizeAboveNumObjectsRefused wants Generate and both stream
// sources to refuse a HotSetSize above NumObjects with an error naming
// it, under the hotspot popularity, whose picker would draw objects that
// do not exist, and under any other, as the non-finite checks do.
func TestHotSetSizeAboveNumObjectsRefused(t *testing.T) {
	g := cliqueGraph(t, 4)
	for _, pop := range []Popularity{PopHotspot, PopUniform} {
		stream := StreamConfig{K: 2, NumObjects: 4, HotSetSize: 100, Pop: pop}
		cases := []struct {
			name string
			run  func() error
		}{
			{"Generate", func() error {
				_, err := Generate(g, Config{K: 2, NumObjects: 4, Rounds: 2, HotSetSize: 100, Pop: pop})
				return err
			}},
			{"NewPoissonSource", func() error { _, err := NewPoissonSource(g, stream); return err }},
			{"NewBurstySource", func() error { _, err := NewBurstySource(g, stream); return err }},
		}
		for _, c := range cases {
			if err := c.run(); err == nil || !strings.Contains(err.Error(), "HotSetSize") {
				t.Errorf("%s with %v popularity, NumObjects=4, HotSetSize=100: error %v, want one naming HotSetSize",
					c.name, pop, err)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := cliqueGraph(t, 6)
	cfg := Config{K: 2, NumObjects: 8, Rounds: 3, Arrival: ArrivalPoisson, Period: 5, Seed: 42}
	a, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Txns {
		if a.Txns[i].Node != b.Txns[i].Node || a.Txns[i].Arrival != b.Txns[i].Arrival {
			t.Fatalf("tx %d differs between runs", i)
		}
		for j := range a.Txns[i].Objects {
			if a.Txns[i].Objects[j] != b.Txns[i].Objects[j] {
				t.Fatalf("tx %d objects differ", i)
			}
		}
	}
}

func TestArrivalProcesses(t *testing.T) {
	g := cliqueGraph(t, 4)
	for _, kind := range []ArrivalKind{ArrivalBatch, ArrivalPeriodic, ArrivalPoisson, ArrivalBursty} {
		in, err := Generate(g, Config{K: 1, NumObjects: 4, Rounds: 5, Arrival: kind, Period: 3, Seed: 9})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		switch kind {
		case ArrivalBatch:
			for _, tx := range in.Txns {
				if tx.Arrival != 0 {
					t.Errorf("batch arrival = %d, want 0", tx.Arrival)
				}
			}
		case ArrivalPeriodic:
			// Round r arrives at 3r.
			for i, tx := range in.Txns {
				want := core.Time(i/4) * 3
				if tx.Arrival != want {
					t.Errorf("periodic tx %d arrival = %d, want %d", i, tx.Arrival, want)
				}
			}
		case ArrivalPoisson, ArrivalBursty:
			// Arrivals must be non-decreasing per node across rounds.
			perNode := map[graph.NodeID][]core.Time{}
			for _, tx := range in.Txns {
				perNode[tx.Node] = append(perNode[tx.Node], tx.Arrival)
			}
			for node, ts := range perNode {
				for i := 1; i < len(ts); i++ {
					if ts[i] < ts[i-1] {
						t.Errorf("%v node %d arrivals decrease: %v", kind, node, ts)
					}
				}
			}
		}
	}
}

func TestPopularitySkew(t *testing.T) {
	g := cliqueGraph(t, 16)
	count := func(pop Popularity) map[core.ObjID]int {
		in, err := Generate(g, Config{K: 1, NumObjects: 64, Rounds: 50, Pop: pop, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		c := map[core.ObjID]int{}
		for _, tx := range in.Txns {
			for _, o := range tx.Objects {
				c[o]++
			}
		}
		return c
	}
	uni := count(PopUniform)
	hot := count(PopHotspot)
	// Hotspot should concentrate far more requests on object space start.
	hotMass := hot[0] + hot[1] + hot[2] + hot[3]
	uniMass := uni[0] + uni[1] + uni[2] + uni[3]
	if hotMass <= uniMass {
		t.Errorf("hotspot mass %d not above uniform mass %d", hotMass, uniMass)
	}
	zipf := count(PopZipf)
	if zipf[0] <= uni[0] {
		t.Errorf("zipf head %d not above uniform head %d", zipf[0], uni[0])
	}
}

func TestDistinctObjectsEvenUnderSkew(t *testing.T) {
	g := cliqueGraph(t, 4)
	// K equal to NumObjects with extreme hotspot: the fill path must still
	// deliver K distinct objects.
	in, err := Generate(g, Config{K: 5, NumObjects: 5, Rounds: 2, Pop: PopHotspot, HotFrac: 0.99, HotSetSize: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, tx := range in.Txns {
		if len(tx.Objects) != 5 {
			t.Fatalf("tx %d has %d objects, want 5", tx.ID, len(tx.Objects))
		}
	}
}

func TestSingleObjectChain(t *testing.T) {
	g := cliqueGraph(t, 8)
	in, err := SingleObjectChain(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Objects) != 1 || in.Objects[0].Origin != 3 {
		t.Errorf("object setup wrong: %+v", in.Objects)
	}
	if len(in.Txns) != 8 {
		t.Errorf("txns = %d, want 8", len(in.Txns))
	}
}

func TestOverlapChain(t *testing.T) {
	g := cliqueGraph(t, 6)
	in, err := OverlapChain(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Txns) != 6 || len(in.Objects) != 6 {
		t.Fatalf("shape wrong: %d txns %d objects", len(in.Txns), len(in.Objects))
	}
	if !in.Txns[0].Conflicts(in.Txns[1]) {
		t.Error("adjacent chain transactions should conflict")
	}
	if in.Txns[0].Conflicts(in.Txns[3]) {
		t.Error("distant chain transactions should not conflict")
	}
}

// Property: every generated instance passes core validation (already
// enforced inside Generate, but exercised across the config space).
func TestGeneratedInstancesAlwaysValid(t *testing.T) {
	g := cliqueGraph(t, 10)
	check := func(seed int64, kindRaw, popRaw uint8) bool {
		mod := seed % 3
		if mod < 0 {
			mod = -mod
		}
		cfg := Config{
			K:          1 + int(mod),
			NumObjects: 6,
			Rounds:     2,
			Arrival:    ArrivalKind(int(kindRaw) % 4),
			Pop:        Popularity(int(popRaw) % 3),
			Period:     2,
			Seed:       seed,
		}
		in, err := Generate(g, cfg)
		if err != nil {
			return false
		}
		return in.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
