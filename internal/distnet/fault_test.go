package distnet

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

// runFloodPlan drives the flood protocol of distnet_test.go under a fault
// plan and returns the event trace plus the engine for counter checks.
// warm selects trees built by the concurrent warm-up (see floodGraph).
func runFloodPlan(t *testing.T, warm bool, plan FaultPlan) ([]string, *Engine) {
	t.Helper()
	g := floodGraph(t, 4, warm)
	var trace []string
	e, err := New(g, floodHandlers(g.N(), &trace), Options{Faults: plan, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.InjectAt(0, 0, "tokenA"); err != nil {
		t.Fatal(err)
	}
	if err := e.InjectAt(2, 13, "tokenB"); err != nil {
		t.Fatal(err)
	}
	if err := e.RunUntil(200); err != nil {
		t.Fatal(err)
	}
	return trace, e
}

// A zero plan must leave the engine on the exact fault-free code path:
// byte-identical trace and zero fault counters.
func TestZeroPlanIdentical(t *testing.T) {
	base := runFlood(t, false)
	zero, e := runFloodPlan(t, false, FaultPlan{})
	if !reflect.DeepEqual(base, zero) {
		t.Error("zero FaultPlan changed the trace")
	}
	if f := faults(e); f != [3]int64{} {
		t.Errorf("zero plan recorded faults: %v", f)
	}
	if e.faulty {
		t.Error("zero plan should not enable the faulty path")
	}
}

// Two sequential runs with the same seeded plan make identical fault
// decisions: ordered traces and counters agree exactly.
func TestFaultDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, Drop: 0.1, Duplicate: 0.05, MaxJitter: 3}
	ta, ea := runFloodPlan(t, false, plan)
	tb, eb := runFloodPlan(t, false, plan)
	if !reflect.DeepEqual(ta, tb) {
		t.Error("same plan, same seed: traces differ")
	}
	if fa, fb := faults(ea), faults(eb); fa != fb {
		t.Errorf("fault counters differ: %v vs %v", fa, fb)
	}
	if faults(ea) == [3]int64{} {
		t.Error("plan with 10% drop on a flood injected no faults: RNG suspect")
	}
	// A different seed must change the decisions (overwhelmingly likely on
	// hundreds of messages).
	tc, _ := runFloodPlan(t, false, FaultPlan{Seed: 43, Drop: 0.1, Duplicate: 0.05, MaxJitter: 3})
	if reflect.DeepEqual(ta, tc) {
		t.Error("different seeds produced identical faulted traces")
	}
}

// Fault decisions are keyed on (step, src, dst, srcSeq) alone, so a
// faulted run on trees built by the concurrent warm-up matches the lazy
// run exactly: the same ordered trace and the same counters.
func TestParallelMatchesSequentialUnderFaults(t *testing.T) {
	plan := FaultPlan{
		Seed: 7, Drop: 0.08, Duplicate: 0.05, MaxJitter: 2,
		Crashes: []CrashWindow{{Node: 5, From: 3, To: 8}},
	}
	seq, es := runFloodPlan(t, false, plan)
	par, ep := runFloodPlan(t, true, plan)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("faulted trace on warmed trees differs from the lazy run (%d vs %d entries)", len(par), len(seq))
	}
	if fs, fp, ms, mp := faults(es), faults(ep), count(es, obs.NameDistnetMessages), count(ep, obs.NameDistnetMessages); fs != fp || ms != mp {
		t.Errorf("counters differ: lazy %d %v warmed %d %v", ms, fs, mp, fp)
	}
}

// pingSetup wires a 3-node line where node 0 sends one "ping" to node 2 on
// inject; returns the engine and the receiver's trace.
func pingSetup(t *testing.T, plan FaultPlan) (*Engine, *traceHandler) {
	t.Helper()
	g, _ := graph.Line(3)
	hs, ts := traceHandlers(3, func(ctx *Ctx, ev Event) {
		if ev.Kind == KindInject {
			ctx.Send(2, "ping")
		}
	})
	e, err := New(g, hs, Options{Faults: plan, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	return e, ts[2]
}

func TestDropLosesMessage(t *testing.T) {
	e, rx := pingSetup(t, FaultPlan{Drop: 1.0})
	_ = e.InjectAt(0, 0, "go")
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if got := countMsgs(rx); got != 0 {
		t.Errorf("ping delivered despite Drop=1: %d events", got)
	}
	if n := count(e, obs.NameDistnetDropped); n != 1 {
		t.Errorf("dropped = %d, want 1", n)
	}
	// The send is still counted: loss happens in flight, not at the sender.
	if n := count(e, obs.NameDistnetMessages); n != 1 {
		t.Errorf("messages = %d, want 1", n)
	}
}

func countMsgs(h *traceHandler) int {
	n := 0
	for _, s := range h.events {
		if !contains(s, "inject") {
			n++
		}
	}
	return n
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestSenderCrashDropsMessage(t *testing.T) {
	e, rx := pingSetup(t, FaultPlan{Crashes: []CrashWindow{{Node: 0, From: 0, To: 5}}})
	_ = e.InjectAt(3, 0, "go")
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if got := countMsgs(rx); got != 0 {
		t.Errorf("message from crashed sender delivered: %d events", got)
	}
	if n := count(e, obs.NameDistnetDropped); n != 1 {
		t.Errorf("dropped = %d, want 1", n)
	}
}

func TestReceiverCrashDropsAtArrival(t *testing.T) {
	// Send at t=0; arrival at t=2 falls inside the receiver's window.
	e, rx := pingSetup(t, FaultPlan{Crashes: []CrashWindow{{Node: 2, From: 1, To: 3}}})
	_ = e.InjectAt(0, 0, "go")
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if got := countMsgs(rx); got != 0 {
		t.Errorf("message to crashed receiver delivered: %d events", got)
	}
	if n := count(e, obs.NameDistnetDropped); n != 1 {
		t.Errorf("dropped = %d, want 1", n)
	}
	// After the window, delivery works again.
	e2, rx2 := pingSetup(t, FaultPlan{Crashes: []CrashWindow{{Node: 2, From: 1, To: 3}}})
	_ = e2.InjectAt(10, 0, "go")
	_ = e2.RunUntil(50)
	if got := countMsgs(rx2); got != 1 {
		t.Errorf("post-restart delivery failed: %d events", got)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	e, rx := pingSetup(t, FaultPlan{Duplicate: 1.0})
	_ = e.InjectAt(0, 0, "go")
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if got := countMsgs(rx); got != 2 {
		t.Errorf("Duplicate=1 delivered %d copies, want 2", got)
	}
	if n := count(e, obs.NameDistnetDuplicated); n != 1 {
		t.Errorf("duplicated = %d, want 1", n)
	}
}

func TestJitterBoundedAndNeverEarly(t *testing.T) {
	g, _ := graph.Line(10)
	const maxJ = 5
	for seed := int64(1); seed <= 20; seed++ {
		var arrival core.Time = -1
		hs, _ := traceHandlers(10, nil)
		hs[9] = handlerFunc(func(ctx *Ctx, ev Event) {
			if ev.Kind == KindMessage {
				arrival = ctx.Now()
			}
		})
		hs[0] = handlerFunc(func(ctx *Ctx, ev Event) {
			if ev.Kind == KindInject {
				ctx.Send(9, "ping")
			}
		})
		e, err := New(g, hs, Options{Faults: FaultPlan{Seed: seed, MaxJitter: maxJ}, Obs: obs.New()})
		if err != nil {
			t.Fatal(err)
		}
		_ = e.InjectAt(0, 0, "go")
		if err := e.RunUntil(100); err != nil {
			t.Fatal(err)
		}
		if arrival < 9 || arrival > 9+maxJ {
			t.Fatalf("seed %d: arrival at t=%d outside [9, %d]", seed, arrival, 9+maxJ)
		}
	}
}

// Self-sends and wake timers model node-local work and must never be
// faulted, even while the node is inside a crash window.
func TestSelfEventsExemptFromFaults(t *testing.T) {
	g, _ := graph.Line(2)
	var got []string
	hs := []Handler{
		handlerFunc(func(ctx *Ctx, ev Event) {
			switch {
			case ev.Kind == KindInject:
				ctx.Send(0, "self")
				ctx.WakeAt(ctx.Now() + 3)
			case ev.Kind == KindMessage:
				got = append(got, "self")
			case ev.Kind == KindWake:
				got = append(got, "wake")
			}
		}),
		handlerFunc(func(ctx *Ctx, ev Event) {}),
	}
	plan := FaultPlan{Drop: 1.0, Crashes: []CrashWindow{{Node: 0, From: 0, To: 100}}}
	e, err := New(g, hs, Options{Faults: plan, Obs: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	_ = e.InjectAt(0, 0, "go")
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []string{"self", "wake"}) {
		t.Errorf("node-local events = %v, want [self wake]", got)
	}
	if n := count(e, obs.NameDistnetDropped); n != 0 {
		t.Errorf("dropped = %d, want 0 (nothing crossed the network)", n)
	}
}

func TestFaultMetricsExported(t *testing.T) {
	m := obs.New()
	g, _ := graph.Line(3)
	hs, _ := traceHandlers(3, func(ctx *Ctx, ev Event) {
		if ev.Kind == KindInject {
			ctx.Send(2, "ping")
		}
	})
	e, err := New(g, hs, Options{Faults: FaultPlan{Drop: 1.0}, Obs: m})
	if err != nil {
		t.Fatal(err)
	}
	_ = e.InjectAt(0, 0, "go")
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.Counters["distnet.dropped"] != 1 {
		t.Errorf("distnet.dropped = %d, want 1", snap.Counters["distnet.dropped"])
	}
}

func TestParseCrashes(t *testing.T) {
	ws, err := ParseCrashes("3:10:20,0:0:5")
	if err != nil {
		t.Fatal(err)
	}
	want := []CrashWindow{{Node: 3, From: 10, To: 20}, {Node: 0, From: 0, To: 5}}
	if !reflect.DeepEqual(ws, want) {
		t.Errorf("ParseCrashes = %v, want %v", ws, want)
	}
	if ws, err := ParseCrashes(""); err != nil || ws != nil {
		t.Errorf("empty spec: got %v, %v", ws, err)
	}
	for _, bad := range []string{"3:10", "a:1:2", "3:20:10", "1:2:3:4"} {
		if _, err := ParseCrashes(bad); err == nil {
			t.Errorf("ParseCrashes(%q): want error", bad)
		}
	}
}

func TestEnabled(t *testing.T) {
	cases := []struct {
		plan FaultPlan
		want bool
	}{
		{FaultPlan{}, false},
		{FaultPlan{Seed: 99}, false}, // seed alone injects nothing
		{FaultPlan{Drop: 0.01}, true},
		{FaultPlan{Duplicate: 0.01}, true},
		{FaultPlan{MaxJitter: 1}, true},
		{FaultPlan{Crashes: []CrashWindow{{}}}, true},
	}
	for i, c := range cases {
		if got := c.plan.Enabled(); got != c.want {
			t.Errorf("case %d: Enabled = %v, want %v", i, got, c.want)
		}
	}
}

func TestNewRefusesBadPlans(t *testing.T) {
	g := floodGraph(t, 2, false) // 4 nodes
	cases := map[string]struct {
		plan FaultPlan
		want string
	}{
		"negative drop":      {FaultPlan{Drop: -0.5}, "drop rate -0.5"},
		"drop above one":     {FaultPlan{Drop: 1.5}, "drop rate 1.5"},
		"NaN drop":           {FaultPlan{Drop: math.NaN()}, "drop rate NaN"},
		"duplicate above 1":  {FaultPlan{Duplicate: 3}, "duplicate rate 3"},
		"negative duplicate": {FaultPlan{Duplicate: -0.01}, "duplicate rate -0.01"},
		"negative jitter":    {FaultPlan{MaxJitter: -1}, "negative max jitter"},
		"crash from > to":    {FaultPlan{Crashes: []CrashWindow{{Node: 1, From: 5, To: 4}}}, "t=5 to t=4"},
		"crash node high":    {FaultPlan{Crashes: []CrashWindow{{Node: 4, From: 0, To: 1}}}, "node 4"},
		"crash node below 0": {FaultPlan{Crashes: []CrashWindow{{Node: -1}}}, "node -1"},
	}
	for name, c := range cases {
		_, err := New(g, floodHandlers(g.N(), new([]string)), Options{Faults: c.plan, Obs: obs.New()})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, c.want)
		}
	}
	// The bounds themselves are valid.
	edge := FaultPlan{Drop: 1, Duplicate: 1, MaxJitter: 0,
		Crashes: []CrashWindow{{Node: 3, From: 2, To: 2}}}
	if _, err := New(g, floodHandlers(g.N(), new([]string)), Options{Faults: edge, Obs: obs.New()}); err != nil {
		t.Errorf("plan at the bounds: %v", err)
	}
}
