package obs

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	m := New()
	c := m.Counter(Name{s: "runs"})
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if m.Counter(Name{s: "runs"}) != c {
		t.Fatal("re-registering a counter returned a different handle")
	}

	g := m.Gauge(Name{s: "depth"})
	g.Add(3)
	g.Add(4)
	g.Add(-5)
	if g.Value() != 2 || g.Max() != 7 {
		t.Fatalf("gauge = (%d, max %d), want (2, max 7)", g.Value(), g.Max())
	}
	g.Set(1)
	if g.Value() != 1 || g.Max() != 7 {
		t.Fatalf("gauge after Set = (%d, max %d), want (1, max 7)", g.Value(), g.Max())
	}

	h := m.Histogram(Name{s: "hops", bounds: []int64{1, 2, 4}})
	for _, v := range []int64{1, 1, 2, 3, 4, 9} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 20 {
		t.Fatalf("histogram count/sum = %d/%d, want 6/20", h.Count(), h.Sum())
	}
	s := m.Snapshot()
	hv := s.Histograms["hops"]
	want := []int64{2, 1, 2, 1} // <=1, <=2, <=4, overflow
	for i, c := range hv.Counts {
		if c != want[i] {
			t.Fatalf("bucket counts = %v, want %v", hv.Counts, want)
		}
	}
	if hv.Min != 1 || hv.Max != 9 {
		t.Fatalf("histogram min/max = %d/%d, want 1/9", hv.Min, hv.Max)
	}
	if s.Counters["runs"] != 5 {
		t.Fatalf("snapshot counter = %d, want 5", s.Counters["runs"])
	}
	if s.Gauges["depth"] != (GaugeValue{Value: 1, Max: 7}) {
		t.Fatalf("snapshot gauge = %+v", s.Gauges["depth"])
	}
}

func TestConcurrentUpdates(t *testing.T) {
	m := New()
	c := m.Counter(Name{s: "c"})
	g := m.Gauge(Name{s: "g"})
	h := m.Histogram(Name{s: "h", bounds: PowersOfTwo(8)})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(i % 100))
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
	if h.Count() != workers*per {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*per)
	}
}

func TestSinks(t *testing.T) {
	m := New()
	var ss SliceSink
	m.SetSink(&ss)
	m.Emit(Event{At: 3, Kind: "decide", Tx: 1})
	m.Emit(Event{At: 5, Kind: "move", Obj: 2, Value: 4})
	evs := ss.Events()
	if len(evs) != 2 || evs[0].Kind != "decide" || evs[1].Value != 4 {
		t.Fatalf("slice sink captured %+v", evs)
	}

	var b strings.Builder
	js := NewJSONLSink(&b)
	js.Event(Event{At: 1, Kind: "commit", Tx: 7})
	got := b.String()
	if !strings.Contains(got, `"kind":"commit"`) || !strings.HasSuffix(got, "\n") {
		t.Fatalf("jsonl sink wrote %q", got)
	}
}

func TestExporters(t *testing.T) {
	m := New()
	m.Counter(Name{s: "a.runs"}).Add(2)
	m.Gauge(Name{s: "a.depth"}).Set(3)
	m.Histogram(Name{s: "a.lat", bounds: []int64{10}}).Observe(4)
	s := m.Snapshot()

	var j strings.Builder
	if err := s.WriteJSON(&j); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"a.runs": 2`, `"a.depth"`, `"a.lat"`} {
		if !strings.Contains(j.String(), want) {
			t.Fatalf("JSON output missing %q:\n%s", want, j.String())
		}
	}
}

// WriteJSON keeps each histogram's arrays on one line: the output decodes
// to the snapshot it came from, and its line count is the same at 2 and at
// 63 buckets.
func TestWriteJSONOneLinePerArray(t *testing.T) {
	render := func(buckets int) (string, *Snapshot) {
		m := New()
		m.Counter(Name{s: "a.runs"}).Add(2)
		m.Gauge(Name{s: "a.depth"}).Set(3)
		h := m.Histogram(Name{s: "a.lat", bounds: PowersOfTwo(buckets)})
		for v := int64(0); v < 70; v += 3 {
			h.Observe(v)
		}
		m.Histogram(Name{s: "a.empty", bounds: PowersOfTwo(buckets)})
		s := m.Snapshot()
		var b strings.Builder
		if err := s.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), s
	}
	small, _ := render(2)
	large, snap := render(63)
	var back Snapshot
	if err := json.Unmarshal([]byte(large), &back); err != nil {
		t.Fatalf("output does not decode: %v\n%s", err, large)
	}
	if !reflect.DeepEqual(&back, snap) {
		t.Fatalf("decoded %+v, want %+v", back, *snap)
	}
	if ns, nl := strings.Count(small, "\n"), strings.Count(large, "\n"); ns != nl {
		t.Errorf("%d lines at 2 buckets, %d at 63:\n%s", ns, nl, large)
	}
	if !strings.Contains(large, `"bounds": [1, 2, 4, 8,`) || !strings.HasSuffix(large, "}\n") {
		t.Errorf("unexpected layout:\n%s", large)
	}
}

func TestMerge(t *testing.T) {
	lat := Name{s: "lat", bounds: []int64{10, 100}}
	a := New()
	a.Counter(Name{s: "runs"}).Add(3)
	a.Gauge(Name{s: "depth"}).Set(5)
	a.Histogram(lat).Observe(7)
	a.Histogram(lat).Observe(50)

	b := New()
	b.Counter(Name{s: "runs"}).Add(4)
	b.Counter(Name{s: "only_b"}).Inc()
	b.Gauge(Name{s: "depth"}).Set(2)
	b.Histogram(lat).Observe(300)

	m := New()
	for _, src := range []*Metrics{a, b} {
		if err := m.Merge(src.Snapshot()); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Snapshot()

	if s.Counters["runs"] != 7 || s.Counters["only_b"] != 1 {
		t.Fatalf("counters did not add: %v", s.Counters)
	}
	// Gauge values add; maxes max.
	if g := s.Gauges["depth"]; g.Value != 7 || g.Max != 5 {
		t.Fatalf("gauge merge wrong: %+v", g)
	}
	h := s.Histograms["lat"]
	if h.Count != 3 || h.Sum != 357 || h.Min != 7 || h.Max != 300 {
		t.Fatalf("histogram totals wrong: %+v", h)
	}
	// Buckets (le_10, le_100, +inf) add exactly.
	if h.Counts[0] != 1 || h.Counts[1] != 1 || h.Counts[2] != 1 {
		t.Fatalf("histogram buckets wrong: %v", h.Counts)
	}
	// Merging a nil snapshot or an empty histogram is a no-op.
	empty := New()
	empty.Histogram(lat)
	for _, snap := range []*Snapshot{nil, empty.Snapshot()} {
		if err := m.Merge(snap); err != nil {
			t.Fatal(err)
		}
	}
	if again := m.Snapshot(); !reflect.DeepEqual(again, s) {
		t.Fatalf("no-op merges changed state: %+v, want %+v", again, s)
	}
}

// TestMergeCommutative checks folding order does not change the result —
// the property the parallel sweep runner relies on.
func TestMergeCommutative(t *testing.T) {
	mk := func(n int64) *Snapshot {
		m := New()
		m.Counter(Name{s: "c"}).Add(n)
		m.Gauge(Name{s: "g"}).Set(n)
		m.Histogram(Name{s: "h", bounds: PowersOfTwo(8)}).Observe(n)
		return m.Snapshot()
	}
	snaps := []*Snapshot{mk(1), mk(16), mk(200)}
	ab, ba := New(), New()
	for i := range snaps {
		if err := ab.Merge(snaps[i]); err != nil {
			t.Fatal(err)
		}
		if err := ba.Merge(snaps[len(snaps)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	x, y := ab.Snapshot(), ba.Snapshot()
	if x.Counters["c"] != y.Counters["c"] || x.Gauges["g"] != y.Gauges["g"] {
		t.Fatalf("merge not commutative: %v vs %v", x, y)
	}
	hx, hy := x.Histograms["h"], y.Histograms["h"]
	if hx.Count != hy.Count || hx.Sum != hy.Sum || hx.Min != hy.Min || hx.Max != hy.Max {
		t.Fatalf("histogram merge not commutative: %+v vs %+v", hx, hy)
	}
}

// TestMergeMismatchedBounds checks that bucket layouts cannot differ
// across registries: a histogram's bounds come with its name, so a
// registry that registered the histogram before merging, and one whose
// Merge registers it, both hold the source's buckets and add them exactly.
func TestMergeMismatchedBounds(t *testing.T) {
	lat := Name{s: "lat", bounds: []int64{5, 50}}
	src := New()
	h := src.Histogram(lat)
	h.Observe(3)   // le_5
	h.Observe(40)  // le_50
	h.Observe(999) // +inf
	want := src.Snapshot().Histograms["lat"]

	first := New()
	pre := first.Histogram(lat) // registered before the merge
	fresh := New()              // registered by the merge
	for _, dst := range []*Metrics{first, fresh} {
		if err := dst.Merge(src.Snapshot()); err != nil {
			t.Fatal(err)
		}
		got := dst.Snapshot().Histograms["lat"]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("merged histogram = %+v, want %+v", got, want)
		}
		if got.Counts[0] != 1 || got.Counts[1] != 1 || got.Counts[2] != 1 {
			t.Fatalf("merged buckets wrong: %v", got.Counts)
		}
	}
	if first.Histogram(lat) != pre {
		t.Fatal("merge replaced the histogram registered before it")
	}
	// Later registrations by name find the merged histogram and its bounds.
	fresh.Histogram(lat).Observe(7)
	got := fresh.Snapshot().Histograms["lat"]
	if got.Count != 4 || got.Counts[1] != 2 || !reflect.DeepEqual(got.Bounds, lat.bounds) {
		t.Fatalf("histogram after merge and observe = %+v", got)
	}
}

// TestMergeRefusesOtherBuckets feeds Merge histograms whose buckets do not
// match: more or fewer buckets than the registered name declares (as an
// older build's snapshot of bucket.level could carry), a count list that
// does not fit its own bounds, and unsorted bounds. Each is refused with an
// error naming the histogram, and the registry is left as it was, counters
// included.
func TestMergeRefusesOtherBuckets(t *testing.T) {
	m := New()
	m.Counter(Name{s: "runs"}).Add(2)
	m.Histogram(NameBucketLevel).Observe(3)
	before := m.Snapshot()
	cases := []struct {
		name string
		hv   HistogramValue
	}{
		{NameBucketLevel.s, HistogramValue{Bounds: PowersOfTwo(8), Counts: make([]int64, 9), Count: 1, Sum: 1, Min: 1, Max: 1}},
		{NameBucketLevel.s, HistogramValue{Bounds: PowersOfTwo(4), Counts: make([]int64, 5), Count: 1, Sum: 1, Min: 1, Max: 1}},
		{NameGreedyBound.s, HistogramValue{Bounds: PowersOfTwo(3), Counts: make([]int64, 4)}}, // declared, not held
		{"lat", HistogramValue{Bounds: []int64{1, 2}, Counts: make([]int64, 5), Count: 1, Sum: 1, Min: 1, Max: 1}},
		{"lat", HistogramValue{Bounds: []int64{2, 1}, Counts: make([]int64, 3), Count: 1, Sum: 1, Min: 1, Max: 1}},
	}
	for _, c := range cases {
		c.hv.Counts[0] = c.hv.Count
		snap := &Snapshot{
			Counters:   map[string]int64{"runs": 5},
			Histograms: map[string]HistogramValue{c.name: c.hv},
		}
		err := m.Merge(snap)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(c.name)) {
			t.Errorf("merging %s with bounds %v and %d counts: err = %v, want one naming it",
				c.name, c.hv.Bounds, len(c.hv.Counts), err)
		}
		if after := m.Snapshot(); !reflect.DeepEqual(after, before) {
			t.Fatalf("refused merge of %s changed the registry: %+v, want %+v", c.name, after, before)
		}
	}
}
