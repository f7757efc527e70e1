// Package obs is the engine-wide observability layer: zero-dependency
// counters, gauges, and fixed-bucket histograms, plus a pluggable event
// Sink for fine-grained traces.
//
// Design constraints, in order:
//
//  1. Every run counts. Every component of a run resolves its handles
//     from the run's one live registry; the paper's per-transaction
//     guarantees are checked at run time only as instruments
//     (greedy.within_bound, bucket.within_lemma4, ...), so there is no
//     disabled mode and no handle is ever nil. Nil survives only at the
//     run entry points (sched.Run, RunClosedLoop, RunStream, core.NewSim
//     and the replays built on it), as "make a private registry".
//  2. Safe for concurrent use. All handle updates are atomic, so the
//     concurrent trials of a sweep may share one registry; the race suite
//     (`make race`) covers this.
//  3. Deterministic output. Snapshot renders maps through encoding/json
//     (sorted keys), so golden tests can assert byte-exact reports.
//
// Instrumentation sites resolve their handles once at setup
// (Metrics.Counter et al. lock a registry map) and then update them
// lock-free on the hot path.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use.
type Counter struct {
	v int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if n <= 0 {
		return
	}
	atomic.AddInt64(&c.v, n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return atomic.LoadInt64(&c.v) }

// Gauge is a metric that can move both ways; it also tracks the maximum
// value it ever held (the natural summary for live-set sizes and queue
// depths). Concurrency-safe.
type Gauge struct {
	v   int64
	max int64
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	atomic.StoreInt64(&g.v, v)
	g.bumpMax(v)
}

// Add shifts the value by d (d may be negative).
func (g *Gauge) Add(d int64) {
	g.bumpMax(atomic.AddInt64(&g.v, d))
}

func (g *Gauge) bumpMax(v int64) {
	for {
		m := atomic.LoadInt64(&g.max)
		if v <= m || atomic.CompareAndSwapInt64(&g.max, m, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return atomic.LoadInt64(&g.v) }

// Max returns the largest value the gauge ever held.
func (g *Gauge) Max() int64 { return atomic.LoadInt64(&g.max) }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= Bounds[i]; one implicit overflow bucket catches the
// rest. Concurrency-safe.
type Histogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1
	count  int64
	sum    int64
	min    int64
	max    int64
}

// PowersOfTwo returns histogram bounds {1, 2, 4, ..., 2^(n-1)} — the
// standard scale for hop distances and latencies in a model where both
// grow with graph diameter.
func PowersOfTwo(n int) []int64 {
	bs := make([]int64, n)
	for i := range bs {
		bs[i] = 1 << uint(i)
	}
	return bs
}

func newHistogram(bounds []int64) *Histogram {
	bs := append([]int64(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return &Histogram{
		bounds: bs,
		counts: make([]int64, len(bs)+1),
		min:    math.MaxInt64,
		max:    math.MinInt64,
	}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	atomic.AddInt64(&h.counts[i], 1)
	atomic.AddInt64(&h.count, 1)
	atomic.AddInt64(&h.sum, v)
	h.foldMin(v)
	h.foldMax(v)
}

func (h *Histogram) foldMin(v int64) {
	for {
		m := atomic.LoadInt64(&h.min)
		if v >= m || atomic.CompareAndSwapInt64(&h.min, m, v) {
			return
		}
	}
}

func (h *Histogram) foldMax(v int64) {
	for {
		m := atomic.LoadInt64(&h.max)
		if v <= m || atomic.CompareAndSwapInt64(&h.max, m, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return atomic.LoadInt64(&h.count) }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return atomic.LoadInt64(&h.sum) }

// Event is one fine-grained engine occurrence, delivered to the Sink.
// core.Sim emits "decide" (Tx, Node, Value = the decided step), "move"
// (one per leg, at its departure: Obj, Node = the leg's end, Value = its
// weight), "cut" (At = the deciding step, Obj, Node = the leg's new end,
// Value = the step the object reaches it) and "commit" (Tx, Node, Value
// = the latency). A field that does not apply to a Kind is left 0 and
// is not encoded: the JSON form (MarshalJSON) carries exactly the Kind's
// own fields, zeros included.
type Event struct {
	At    int64  `json:"at"`              // simulation time step
	Kind  string `json:"kind"`            // e.g. "decide", "move", "cut", "commit"
	Tx    int    `json:"tx,omitempty"`    // transaction, if any
	Obj   int    `json:"obj,omitempty"`   // object, if any
	Node  int    `json:"node,omitempty"`  // node, if any
	Value int64  `json:"value,omitempty"` // kind-specific payload (weight, time, ...)
}

// MarshalJSON encodes e with at, kind and the fields of its Kind, 0
// included: tx, node and value for "decide" and "commit"; obj, node and
// value for "move" and "cut". An event of any other kind carries every
// field.
func (e Event) MarshalJSON() ([]byte, error) {
	type txEvent struct {
		At    int64  `json:"at"`
		Kind  string `json:"kind"`
		Tx    int    `json:"tx"`
		Node  int    `json:"node"`
		Value int64  `json:"value"`
	}
	type objEvent struct {
		At    int64  `json:"at"`
		Kind  string `json:"kind"`
		Obj   int    `json:"obj"`
		Node  int    `json:"node"`
		Value int64  `json:"value"`
	}
	type anyEvent struct {
		At    int64  `json:"at"`
		Kind  string `json:"kind"`
		Tx    int    `json:"tx"`
		Obj   int    `json:"obj"`
		Node  int    `json:"node"`
		Value int64  `json:"value"`
	}
	switch e.Kind {
	case "decide", "commit":
		return json.Marshal(txEvent{e.At, e.Kind, e.Tx, e.Node, e.Value})
	case "move", "cut":
		return json.Marshal(objEvent{e.At, e.Kind, e.Obj, e.Node, e.Value})
	}
	return json.Marshal(anyEvent(e))
}

// Sink receives the event stream. A run calls it from the goroutine that
// drives the run; a sink shared by concurrent runs must tolerate
// concurrent calls, as SliceSink and JSONLSink do.
type Sink interface {
	Event(Event)
}

// SliceSink buffers events in memory (tests, small traces).
type SliceSink struct {
	mu     sync.Mutex
	events []Event
}

// Event implements Sink.
func (s *SliceSink) Event(e Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// Events returns a copy of the buffered events.
func (s *SliceSink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Event(nil), s.events...)
}

// JSONLSink streams events to w as JSON lines.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONLSink wraps w in a JSON-lines event sink.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{enc: json.NewEncoder(w)}
}

// Event implements Sink.
func (s *JSONLSink) Event(e Event) {
	s.mu.Lock()
	_ = s.enc.Encode(e)
	s.mu.Unlock()
}

// Metrics is a registry of named instruments plus the optional event
// sink. Every run counts into one; the run entry points make a private
// one when handed nil.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	sink     Sink
}

// New returns an empty registry with no sink.
func New() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// SetSink installs the event sink. Install before the run starts; the
// field is read without synchronization on the hot path.
func (m *Metrics) SetSink(s Sink) { m.sink = s }

// Counter returns (registering if needed) the named counter.
func (m *Metrics) Counter(name Name) *Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counter(name.s)
}

// Gauge returns (registering if needed) the named gauge.
func (m *Metrics) Gauge(name Name) *Gauge {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauge(name.s)
}

// Histogram returns (registering if needed) the named histogram, with
// the bucket bounds its name declares.
func (m *Metrics) Histogram(name Name) *Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.histogram(name.s, name.bounds)
}

// counter, gauge and histogram are the string-keyed lookups behind the
// exported ones; Merge reads its names out of a snapshot. The caller
// holds m.mu.
func (m *Metrics) counter(name string) *Counter {
	c, ok := m.counters[name]
	if !ok {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

func (m *Metrics) gauge(name string) *Gauge {
	g, ok := m.gauges[name]
	if !ok {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

func (m *Metrics) histogram(name string, bounds []int64) *Histogram {
	h, ok := m.hists[name]
	if !ok {
		h = newHistogram(bounds)
		m.hists[name] = h
	}
	return h
}

// Emit forwards an event to the sink, if one is installed.
func (m *Metrics) Emit(e Event) {
	if m.sink == nil {
		return
	}
	m.sink.Event(e)
}

// Merge folds a snapshot of another registry into m. Every fold is
// commutative and associative — counters and histogram buckets add,
// gauge values add with maxes maxed, histogram min/max combine — so
// per-cell registries collected by concurrent sweep workers reach the
// same final state regardless of completion order. A nil snapshot is a
// no-op. Merge refuses a snapshot holding a histogram whose buckets do
// not match the ones m holds under its name, or the ones its registered
// name declares (an older build's snapshot, say): it returns an error
// naming the first such histogram and leaves m unchanged.
func (m *Metrics) Merge(s *Snapshot) error {
	if s == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := m.checkBuckets(name, s.Histograms[name]); err != nil {
			return err
		}
	}
	for name, v := range s.Counters {
		m.counter(name).Add(v)
	}
	for name, gv := range s.Gauges {
		// Add to the value directly (not via Add, which would fold the
		// order-dependent running sum into the max) and max the maxes.
		g := m.gauge(name)
		atomic.AddInt64(&g.v, gv.Value)
		g.bumpMax(gv.Max)
	}
	for name, hv := range s.Histograms {
		m.histogram(name, hv.Bounds).merge(hv)
	}
	return nil
}

// checkBuckets reports whether hv can fold into the histogram m holds, or
// would make, under name: its bounds must be the held histogram's, or
// else the ones a registered name declares, or else at least sorted, and
// it must carry one count per bucket. The caller holds m.mu.
func (m *Metrics) checkBuckets(name string, hv HistogramValue) error {
	want, known := declared[name]
	if h, ok := m.hists[name]; ok {
		want, known = h.bounds, true
	}
	switch {
	case known && !slices.Equal(hv.Bounds, want):
		return fmt.Errorf("obs: histogram %q has bounds %v, want %v", name, hv.Bounds, want)
	case !slices.IsSorted(hv.Bounds):
		return fmt.Errorf("obs: histogram %q has unsorted bounds %v", name, hv.Bounds)
	case len(hv.Counts) != len(hv.Bounds)+1:
		return fmt.Errorf("obs: histogram %q has %d counts for %d buckets", name, len(hv.Counts), len(hv.Bounds)+1)
	}
	return nil
}

// merge folds an exported histogram state into h, whose buckets
// checkBuckets has matched to the snapshot's, so the buckets add exactly.
func (h *Histogram) merge(hv HistogramValue) {
	if hv.Count == 0 {
		return
	}
	for i, c := range hv.Counts {
		atomic.AddInt64(&h.counts[i], c)
	}
	atomic.AddInt64(&h.count, hv.Count)
	atomic.AddInt64(&h.sum, hv.Sum)
	h.foldMin(hv.Min)
	h.foldMax(hv.Max)
}

// GaugeValue is a gauge's exported state.
type GaugeValue struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// HistogramValue is a histogram's exported state. Counts has one entry
// per bound plus the overflow bucket.
type HistogramValue struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
	Min    int64   `json:"min"`
	Max    int64   `json:"max"`
}

// Quantile estimates the q-th quantile (0 <= q <= 1) from the bucketed
// counts: the upper bound of the bucket holding the nearest-rank
// observation, clamped to the observed Min/Max. The overflow bucket
// reports Max. Returns 0 for an empty histogram.
func (hv HistogramValue) Quantile(q float64) int64 {
	if hv.Count == 0 {
		return 0
	}
	rank := int64(q * float64(hv.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > hv.Count {
		rank = hv.Count
	}
	var seen int64
	for i, c := range hv.Counts {
		seen += c
		if seen >= rank {
			if i >= len(hv.Bounds) { // overflow bucket
				return hv.Max
			}
			b := hv.Bounds[i]
			if b > hv.Max {
				b = hv.Max
			}
			if b < hv.Min {
				b = hv.Min
			}
			return b
		}
	}
	return hv.Max
}

// Snapshot is a point-in-time export of every registered instrument.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]GaugeValue     `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Snapshot exports the registry.
func (m *Metrics) Snapshot() *Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(m.counters)),
		Gauges:     make(map[string]GaugeValue, len(m.gauges)),
		Histograms: make(map[string]HistogramValue, len(m.hists)),
	}
	for name, c := range m.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range m.gauges {
		s.Gauges[name] = GaugeValue{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range m.hists {
		hv := HistogramValue{
			Bounds: append([]int64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  atomic.LoadInt64(&h.count),
			Sum:    atomic.LoadInt64(&h.sum),
		}
		for i := range h.counts {
			hv.Counts[i] = atomic.LoadInt64(&h.counts[i])
		}
		if hv.Count > 0 {
			hv.Min = atomic.LoadInt64(&h.min)
			hv.Max = atomic.LoadInt64(&h.max)
		}
		s.Histograms[name] = hv
	}
	return s
}

// WriteJSON renders the snapshot as indented JSON, keys sorted
// (encoding/json sorts map keys, so the output is deterministic), with
// each histogram's bounds and counts arrays on one line: a snapshot's
// line count does not grow with its bucket counts.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(joinArrays(b))
	return err
}

// joinArrays joins every array MarshalIndent spread over lines back onto
// the line that opens it, one space after each comma. A snapshot's only
// arrays are the histograms' bounds and counts, which hold numbers, so a
// line ending in '[' always opens one and its elements are its next lines
// up to the one starting with ']'.
func joinArrays(b []byte) []byte {
	out := make([]byte, 0, len(b))
	open := false
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		t := bytes.TrimSpace(line)
		switch {
		case open && bytes.HasPrefix(t, []byte("]")):
			out = append(append(out, t...), '\n')
			open = false
		case open:
			out = append(out, t...)
			if bytes.HasSuffix(t, []byte(",")) {
				out = append(out, ' ')
			}
		case bytes.HasSuffix(t, []byte("[")):
			out = append(out, bytes.TrimRight(line, "\n")...)
			open = true
		default:
			out = append(out, line...)
		}
	}
	return append(out, '\n')
}
