package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

// testSweep builds a sweep whose cell outcomes depend on (point, cell,
// seed) through a seeded RNG, so any ordering or seeding bug changes the
// rendered table.
func testSweep(points, cells, trials, workers int, seed int64) (Sweep, *stats.Table) {
	t := stats.NewTable("test", "point", "mean", "±", "extra")
	var ps []Point
	for p := 0; p < points; p++ {
		p := p
		var cs []Cell
		for c := 0; c < cells; c++ {
			c := c
			cs = append(cs, Cell{
				Name: fmt.Sprintf("c%d", c),
				Run: func(seed int64, m *obs.Metrics) (Outcome, error) {
					rng := rand.New(rand.NewSource(seed + int64(p*100+c)))
					// Any registered names do: one counts trials, one sums
					// seeds, one records the cell.
					m.Counter(obs.NameSchedArrivals).Inc()
					m.Gauge(obs.NameSchedLiveTxns).Set(seed)
					m.Histogram(obs.NameGreedyColor).Observe(int64(p + c))
					return Outcome{
						Makespan: float64(rng.Intn(1000)),
						MaxLat:   rng.Float64() * 10,
						Extra:    map[string]float64{"x": float64(seed % 997)},
					}, nil
				},
			})
		}
		ps = append(ps, Point{
			Cells: cs,
			Row: func(aggs []Agg) ([]string, error) {
				a := aggs[0]
				for _, other := range aggs[1:] {
					a.Makespan.Mean += other.Makespan.Mean
				}
				return []string{fmt.Sprint(p), a.F2(a.Makespan.Mean), a.Spread(a.MaxLat), a.F2(a.X("x").Mean)}, nil
			},
		})
	}
	return Sweep{Points: ps, Trials: trials, Seed: seed, Workers: workers}, t
}

func render(t *testing.T, s Sweep, tb *stats.Table) string {
	t.Helper()
	if err := s.Run(tb); err != nil {
		t.Fatalf("Run: %v", err)
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatalf("Render: %v", err)
	}
	return b.String()
}

// TestParallelMatchesSequential is the determinism contract: for several
// seeds and pool sizes the rendered tables must be byte-identical.
func TestParallelMatchesSequential(t *testing.T) {
	for _, seed := range []int64{1, 42, 31337} {
		s, tb := testSweep(4, 3, 5, 1, seed)
		want := render(t, s, tb)
		for _, workers := range []int{0, 2, 3, 7, 64} {
			s, tb := testSweep(4, 3, 5, workers, seed)
			if got := render(t, s, tb); got != want {
				t.Errorf("seed %d workers %d: table differs from sequential\nseq:\n%s\npar:\n%s", seed, workers, want, got)
			}
		}
	}
}

// TestSeedSequence checks trial i sees Seed + i*101, the harness-wide
// seed stride.
func TestSeedSequence(t *testing.T) {
	var mu sync.Mutex
	seen := map[int64]bool{}
	s := Sweep{
		Trials: 3, Seed: 1000, Workers: 2,
		Points: []Point{{
			Cells: []Cell{{Name: "c", Run: func(seed int64, _ *obs.Metrics) (Outcome, error) {
				mu.Lock()
				seen[seed] = true
				mu.Unlock()
				return Outcome{}, nil
			}}},
			Row: func([]Agg) ([]string, error) { return []string{"r"}, nil },
		}},
	}
	if err := s.Run(stats.NewTable("t", "r")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []int64{1000, 1101, 1202} {
		if !seen[want] {
			t.Errorf("seed %d not used; saw %v", want, seen)
		}
	}
	if len(seen) != 3 {
		t.Errorf("expected 3 distinct seeds, saw %v", seen)
	}
}

// TestFailureIsolation checks an erroring cell records its error while
// sibling cells still run and render.
func TestFailureIsolation(t *testing.T) {
	boom := errors.New("boom")
	var siblingRan atomic.Int32
	var gotErr error
	s := Sweep{
		Trials: 2, Workers: 2,
		Points: []Point{{
			Cells: []Cell{
				{Name: "bad", Run: func(int64, *obs.Metrics) (Outcome, error) { return Outcome{}, boom }},
				{Name: "good", Run: func(int64, *obs.Metrics) (Outcome, error) {
					siblingRan.Add(1)
					return Outcome{Makespan: 7}, nil
				}},
			},
			Row: func(cs []Agg) ([]string, error) {
				gotErr = cs[0].Err
				return []string{cs[0].F2(cs[0].Makespan.Mean), cs[1].F2(cs[1].Makespan.Mean)}, nil
			},
		}},
	}
	tb := stats.NewTable("t", "bad", "good")
	if err := s.Run(tb); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !errors.Is(gotErr, boom) {
		t.Errorf("cell error = %v, want %v", gotErr, boom)
	}
	if siblingRan.Load() != 2 {
		t.Errorf("sibling ran %d trials, want 2", siblingRan.Load())
	}
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "error") || !strings.Contains(out, "7.00") {
		t.Errorf("row should mark the failed cell and keep the sibling value:\n%s", out)
	}
}

// TestPanicRecovery checks a panicking trial becomes a recorded error
// naming the cell and seed, not a crashed pool.
func TestPanicRecovery(t *testing.T) {
	s := Sweep{
		Seed: 5, Workers: 2,
		Points: []Point{{
			Cells: []Cell{{Name: "kaboom", Run: func(int64, *obs.Metrics) (Outcome, error) {
				panic("exploded")
			}}},
			Row: func(cs []Agg) ([]string, error) { return nil, FirstErr(cs) },
		}},
	}
	err := s.Run(stats.NewTable("t", "r"))
	if err == nil {
		t.Fatal("expected error from panicking cell")
	}
	for _, want := range []string{"kaboom", "seed 5", "exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q should mention %q", err, want)
		}
	}
}

// TestWorkerPoolBound checks concurrency never exceeds Workers, and that
// Workers=1 really is sequential.
func TestWorkerPoolBound(t *testing.T) {
	for _, workers := range []int{1, 2, 3} {
		var cur, peak atomic.Int32
		gate := make(chan struct{}, 1) // serialises the peak check
		s := Sweep{
			Trials: 8, Workers: workers,
			Points: []Point{{
				Cells: []Cell{{Name: "c", Run: func(int64, *obs.Metrics) (Outcome, error) {
					n := cur.Add(1)
					gate <- struct{}{}
					if n > peak.Load() {
						peak.Store(n)
					}
					<-gate
					cur.Add(-1)
					return Outcome{}, nil
				}}},
				Row: func([]Agg) ([]string, error) { return []string{"r"}, nil },
			}},
		}
		if err := s.Run(stats.NewTable("t", "r")); err != nil {
			t.Fatal(err)
		}
		if p := int(peak.Load()); p > workers {
			t.Errorf("Workers=%d: peak concurrency %d", workers, p)
		}
		if workers == 1 && peak.Load() != 1 {
			t.Errorf("Workers=1: peak concurrency %d, want exactly 1", peak.Load())
		}
	}
}

// TestObsMergeDeterministic checks the sweep registry's final snapshot is
// independent of worker count.
func TestObsMergeDeterministic(t *testing.T) {
	snap := func(workers int) *obs.Snapshot {
		s, tb := testSweep(3, 2, 4, workers, 9)
		s.Obs = obs.New()
		if err := s.Run(tb); err != nil {
			t.Fatal(err)
		}
		return s.Obs.Snapshot()
	}
	seq, par := snap(1), snap(4)
	trials, lastSeed, val := obs.NameSchedArrivals.String(), obs.NameSchedLiveTxns.String(), obs.NameGreedyColor.String()
	if seq.Counters[trials] != 24 || par.Counters[trials] != seq.Counters[trials] {
		t.Errorf("trials counter: seq=%d par=%d want 24", seq.Counters[trials], par.Counters[trials])
	}
	if seq.Gauges[lastSeed].Value != par.Gauges[lastSeed].Value {
		t.Errorf("gauge sum differs: seq=%v par=%v", seq.Gauges[lastSeed], par.Gauges[lastSeed])
	}
	sh, ph := seq.Histograms[val], par.Histograms[val]
	if sh.Count != ph.Count || sh.Sum != ph.Sum || sh.Max != ph.Max {
		t.Errorf("histogram differs: seq=%+v par=%+v", sh, ph)
	}
}

// TestTrialsGetARegistry checks that every trial gets a private registry
// of its own even when the sweep collects no metrics: engines count their
// audits only there.
func TestTrialsGetARegistry(t *testing.T) {
	var mu sync.Mutex
	seen := map[*obs.Metrics]bool{}
	s, tb := testSweep(2, 2, 3, 2, 5)
	for pi := range s.Points {
		for ci := range s.Points[pi].Cells {
			run := s.Points[pi].Cells[ci].Run
			s.Points[pi].Cells[ci].Run = func(seed int64, m *obs.Metrics) (Outcome, error) {
				mu.Lock()
				seen[m] = true
				mu.Unlock()
				return run(seed, m)
			}
		}
	}
	if err := s.Run(tb); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 12 || seen[nil] {
		t.Errorf("%d distinct registries for 12 trials (nil among them: %v)", len(seen), seen[nil])
	}
}

// TestSweepValidation checks misconfigured points are rejected up front.
func TestSweepValidation(t *testing.T) {
	noop := func(int64, *obs.Metrics) (Outcome, error) { return Outcome{}, nil }
	row := func([]Agg) ([]string, error) { return []string{"r"}, nil }
	rows := func([]Agg) ([][]string, error) { return nil, nil }
	cases := []struct {
		name string
		p    Point
	}{
		{"neither Row nor Rows", Point{Cells: []Cell{{Name: "c", Run: noop}}}},
		{"both Row and Rows", Point{Cells: []Cell{{Name: "c", Run: noop}}, Row: row, Rows: rows}},
		{"nil Run", Point{Cells: []Cell{{Name: "c"}}, Row: row}},
	}
	for _, tc := range cases {
		if err := (Sweep{Points: []Point{tc.p}}).Run(stats.NewTable("t", "r")); err == nil {
			t.Errorf("%s: expected validation error", tc.name)
		}
	}
}

// TestRowsExpansion checks a Rows point appends all its rows in order.
func TestRowsExpansion(t *testing.T) {
	s := Sweep{Points: []Point{{
		Cells: []Cell{{Name: "c", Run: func(int64, *obs.Metrics) (Outcome, error) {
			return Outcome{Makespan: 3}, nil
		}}},
		Rows: func(cs []Agg) ([][]string, error) {
			return [][]string{{"a", cs[0].F1(cs[0].Makespan.Mean)}, {"b", "x"}}, nil
		},
	}}}
	tb := stats.NewTable("t", "k", "v")
	if err := s.Run(tb); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "a,3.0") || !strings.Contains(out, "b,x") {
		t.Errorf("missing expanded rows:\n%s", out)
	}
}

// TestSchedAdapter runs the Sched cell adapter end-to-end on a real tiny
// instance and checks the outcome fields are populated.
func TestSchedAdapter(t *testing.T) {
	g, err := graph.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	cell := Sched(func(seed int64) (*core.Instance, sched.Scheduler, error) {
		in := &core.Instance{
			G:       g,
			Objects: []*core.Object{{ID: 0, Origin: 0}},
			Txns: []*core.Transaction{
				{ID: 0, Node: 3, Objects: []core.ObjID{0}, Arrival: 0},
				{ID: 1, Node: 1, Objects: []core.ObjID{0}, Arrival: 0},
			},
		}
		return in, greedy.New(greedy.Options{}), nil
	})
	m := obs.New()
	out, err := cell(42, m)
	if err != nil {
		t.Fatal(err)
	}
	if out.Makespan <= 0 || out.MaxRatio < 1 {
		t.Errorf("unexpected outcome: %+v", out)
	}
	// The driver must have reported into the trial registry.
	if len(m.Snapshot().Counters)+len(m.Snapshot().Gauges) == 0 {
		t.Error("Sched adapter did not wire the obs registry into the driver")
	}
}

// TestAggFormatting covers the error-marker rendering helpers.
func TestAggFormatting(t *testing.T) {
	ok := Agg{Makespan: stats.Sample{Mean: 2.5, Std: 0.5}}
	if got := ok.F2(ok.Makespan.Mean); got != "2.50" {
		t.Errorf("F2 = %q", got)
	}
	if got := ok.Spread(ok.Makespan); got != "±0.50" {
		t.Errorf("Spread = %q", got)
	}
	if got := ok.Int(ok.Makespan); got != "3" { // Round(2.5) rounds half away from zero
		t.Errorf("Int = %q", got)
	}
	bad := Agg{Err: errors.New("x")}
	for _, got := range []string{bad.F2(1), bad.F1(1), bad.Int(stats.Sample{}), bad.Spread(stats.Sample{})} {
		if got != "error" {
			t.Errorf("failed cell rendered %q, want \"error\"", got)
		}
	}
}
