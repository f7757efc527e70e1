package distnet

import (
	"fmt"
	"reflect"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

// count reads one counter from the registry the engine was built with.
func count(e *Engine, name obs.Name) int64 { return e.opts.Obs.Counter(name).Value() }

// faults reads the engine's dropped, duplicated and delayed counters.
func faults(e *Engine) [3]int64 {
	return [3]int64{count(e, obs.NameDistnetDropped), count(e, obs.NameDistnetDuplicated), count(e, obs.NameDistnetDelayed)}
}

// traceHandler logs every event it receives and optionally reacts.
type traceHandler struct {
	events []string
	react  func(ctx *Ctx, ev Event)
}

func (h *traceHandler) HandleEvent(ctx *Ctx, ev Event) {
	h.events = append(h.events, fmt.Sprintf("t=%d node=%d %v from=%d payload=%v",
		ctx.Now(), ctx.Node(), ev.Kind, ev.From, ev.Payload))
	if h.react != nil {
		h.react(ctx, ev)
	}
}

func traceHandlers(n int, react func(ctx *Ctx, ev Event)) ([]Handler, []*traceHandler) {
	hs := make([]Handler, n)
	ts := make([]*traceHandler, n)
	for i := range hs {
		ts[i] = &traceHandler{react: react}
		hs[i] = ts[i]
	}
	return hs, ts
}

func TestNewValidation(t *testing.T) {
	g, _ := graph.Line(3)
	if _, err := New(nil, nil, Options{Obs: obs.New()}); err == nil {
		t.Error("nil graph: want error")
	}
	if _, err := New(g, make([]Handler, 2), Options{Obs: obs.New()}); err == nil {
		t.Error("handler count mismatch: want error")
	}
	if _, err := New(g, make([]Handler, 3), Options{Obs: obs.New()}); err == nil {
		t.Error("nil handlers: want error")
	}
	hs, _ := traceHandlers(3, func(*Ctx, Event) {})
	if _, err := New(g, hs, Options{}); err == nil {
		t.Error("nil registry: want error")
	}
}

func TestMessageDelayEqualsDistance(t *testing.T) {
	g, _ := graph.Line(10)
	hs, ts := traceHandlers(10, func(ctx *Ctx, ev Event) {
		if ev.Kind == KindInject {
			ctx.Send(9, "ping")
		}
	})
	e, err := New(g, hs, Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectAt(5, 0, "go"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	want := "t=14 node=9 msg from=0 payload=ping" // 5 + dist(0,9)=9
	if len(ts[9].events) != 1 || ts[9].events[0] != want {
		t.Errorf("node 9 events = %v, want [%q]", ts[9].events, want)
	}
	if msgs, dist := count(e, obs.NameDistnetMessages), count(e, obs.NameDistnetMsgDistance); msgs != 1 || dist != 9 {
		t.Errorf("counters = %d msgs / %d dist, want 1/9", msgs, dist)
	}
}

func TestWakeAt(t *testing.T) {
	g, _ := graph.Line(2)
	woke := false
	hs, _ := traceHandlers(2, func(ctx *Ctx, ev Event) {
		switch ev.Kind {
		case KindInject:
			ctx.WakeAt(42)
		case KindWake:
			if ctx.Now() != 42 {
				panic("wrong wake time")
			}
			woke = true
		}
	})
	e, err := New(g, hs, Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectAt(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if !woke {
		t.Error("wake never fired")
	}
}

func TestSelfSendProcessedSameStepLaterPass(t *testing.T) {
	g, _ := graph.Line(2)
	var order []string
	hs, _ := traceHandlers(2, nil)
	hs[0] = handlerFunc(func(ctx *Ctx, ev Event) {
		switch p := ev.Payload.(type) {
		case string:
			if p == "start" {
				order = append(order, "start")
				ctx.Send(0, "self")
			} else {
				order = append(order, p)
			}
		}
	})
	e, err := New(g, hs, Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectAt(3, 0, "start"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(3); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "start" || order[1] != "self" {
		t.Errorf("order = %v, want [start self]", order)
	}
	if e.Now() != 3 {
		t.Errorf("now = %d, want 3", e.Now())
	}
}

type handlerFunc func(ctx *Ctx, ev Event)

func (f handlerFunc) HandleEvent(ctx *Ctx, ev Event) { f(ctx, ev) }

func TestLivelockDetected(t *testing.T) {
	g, _ := graph.Line(2)
	hs := []Handler{
		handlerFunc(func(ctx *Ctx, ev Event) { ctx.Send(0, "again") }),
		handlerFunc(func(ctx *Ctx, ev Event) {}),
	}
	e, err := New(g, hs, Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectAt(0, 0, "boom"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(1); err == nil {
		t.Fatal("want livelock error")
	}
}

func TestInjectValidation(t *testing.T) {
	g, _ := graph.Line(2)
	hs, _ := traceHandlers(2, nil)
	e, err := New(g, hs, Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectAt(5, 0, nil); err == nil {
		t.Error("inject in past: want error")
	}
	if err := e.InjectAt(20, 7, nil); err == nil {
		t.Error("inject to unknown node: want error")
	}
	if err := e.RunUntil(5); err == nil {
		t.Error("rewind: want error")
	}
}

// floodProtocol: on inject, node broadcasts a token; each node forwards a
// received token once to all neighbors. Deterministic and chatty — a good
// equivalence workout.
type floodProtocol struct {
	seen  map[string]bool
	trace *[]string
}

func (f *floodProtocol) HandleEvent(ctx *Ctx, ev Event) {
	key := fmt.Sprint(ev.Payload)
	*f.trace = append(*f.trace, fmt.Sprintf("t=%d n=%d k=%v p=%s from=%d", ctx.Now(), ctx.Node(), ev.Kind, key, ev.From))
	if f.seen[key] {
		return
	}
	f.seen[key] = true
	for _, e := range ctx.Graph().Neighbors(ctx.Node()) {
		ctx.Send(e.To, ev.Payload)
	}
}

// floodGraph returns a fresh hypercube. With warm set, every shortest-path
// tree is built before the run by a concurrent warm-up, as core.NewSim
// does under SimOptions.Parallel; otherwise the run builds them lazily.
func floodGraph(t *testing.T, dim int, warm bool) *graph.Graph {
	t.Helper()
	g, err := graph.Hypercube(dim)
	if err != nil {
		t.Fatal(err)
	}
	if warm {
		g.WarmTrees(2)
	}
	return g
}

func floodHandlers(n int, trace *[]string) []Handler {
	hs := make([]Handler, n)
	for i := range hs {
		hs[i] = &floodProtocol{seen: map[string]bool{}, trace: trace}
	}
	return hs
}

func runFlood(t *testing.T, warm bool) []string {
	t.Helper()
	g := floodGraph(t, 4, warm)
	var trace []string
	e, err := New(g, floodHandlers(g.N(), &trace), Options{Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectAt(0, 0, "tokenA"); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectAt(2, 13, "tokenB"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(100); err != nil {
		t.Fatal(err)
	}
	return trace
}

// The engine runs each step's handlers in node order on one goroutine, so
// a run on trees built by the concurrent warm-up matches a run that builds
// them lazily entry for entry, in order.
func TestParallelMatchesSequential(t *testing.T) {
	seq := runFlood(t, false)
	par := runFlood(t, true)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("trace on warmed trees differs from the lazy run (%d vs %d entries)", len(par), len(seq))
	}
}

// Determinism: two runs give identical ordered traces.
func TestDeterministicAndCountersAgree(t *testing.T) {
	a := runFlood(t, false)
	b := runFlood(t, false)
	if !reflect.DeepEqual(a, b) {
		t.Error("sequential runs differ")
	}
}

// The message counters agree exactly between a lazy and a warmed run.
func TestCountersAgreeAcrossEngines(t *testing.T) {
	mk := func(warm bool) [2]int64 {
		g := floodGraph(t, 3, warm)
		e, _ := New(g, floodHandlers(g.N(), new([]string)), Options{Obs: obs.New()})
		_ = e.InjectAt(0, 0, "x")
		_ = e.RunUntil(50)
		return [2]int64{count(e, obs.NameDistnetMessages), count(e, obs.NameDistnetMsgDistance)}
	}
	if s, p := mk(false), mk(true); s != p || s[0] == 0 {
		t.Errorf("counters differ: lazy %d/%d warmed %d/%d", s[0], s[1], p[0], p[1])
	}
}

func TestNextEvent(t *testing.T) {
	g, _ := graph.Line(2)
	hs, _ := traceHandlers(2, nil)
	e, _ := New(g, hs, Options{Obs: obs.New()})
	if _, ok := e.NextEvent(); ok {
		t.Error("empty engine should have no next event")
	}
	_ = e.InjectAt(7, 0, nil)
	if at, ok := e.NextEvent(); !ok || at != 7 {
		t.Errorf("NextEvent = %d,%v, want 7,true", at, ok)
	}
	_ = core.Time(0)
}
