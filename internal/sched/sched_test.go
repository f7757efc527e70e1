package sched

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/workload"
)

// serialScheduler schedules each arrival at a fixed offset past a running
// horizon — always feasible, never clever. It exercises the driver.
type serialScheduler struct {
	env     *Env
	horizon core.Time
	gap     core.Time
}

func (s *serialScheduler) Name() string { return "serial" }
func (s *serialScheduler) Start(env *Env) error {
	s.env = env
	if s.gap == 0 {
		s.gap = core.Time(env.G.Diameter()) + 1
	}
	return nil
}
func (s *serialScheduler) OnArrive(txns []*core.Transaction) error {
	now := s.env.Sim.Now()
	if s.horizon < now {
		s.horizon = now
	}
	for _, tx := range txns {
		s.horizon += s.gap
		if err := s.env.Sim.Decide(tx.ID, s.horizon); err != nil {
			return err
		}
	}
	return nil
}
func (s *serialScheduler) NextWake() (core.Time, bool) { return 0, false }
func (s *serialScheduler) OnWake() error               { return nil }
func (s *serialScheduler) speed() int                  { return s.env.Sim.SlowFactor() }

// wakeSpinner requests a wake at the current time forever.
type wakeSpinner struct{ env *Env }

func (s *wakeSpinner) Name() string                       { return "spinner" }
func (s *wakeSpinner) Start(env *Env) error               { s.env = env; return nil }
func (s *wakeSpinner) OnArrive([]*core.Transaction) error { return nil }
func (s *wakeSpinner) NextWake() (core.Time, bool)        { return s.env.Sim.Now(), true }
func (s *wakeSpinner) OnWake() error                      { return nil }

func testInstance(t *testing.T, n int) *core.Instance {
	t.Helper()
	g, err := graph.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 5, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 3, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestDriverRunsSerialScheduler(t *testing.T) {
	in := testInstance(t, 10)
	rr, err := Run(in, &serialScheduler{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Makespan <= 0 {
		t.Error("no makespan")
	}
	if len(rr.Decisions) != len(in.Txns) {
		t.Errorf("decision log has %d entries, want %d", len(rr.Decisions), len(in.Txns))
	}
	for i := 1; i < len(rr.Decisions); i++ {
		if rr.Decisions[i].At < rr.Decisions[i-1].At {
			t.Fatal("decision log not sorted by decision time")
		}
	}
	// The decision log must replay cleanly.
	if _, err := core.Replay(in, rr.Decisions, core.SimOptions{}, nil); err != nil {
		t.Fatalf("decision log does not replay: %v", err)
	}
}

// slowSerial is a serialScheduler built for half-speed objects.
type slowSerial struct{ serialScheduler }

func (*slowSerial) SlowFactor() int { return 2 }

// TestDriveSlowFactor pins where a run's object speed comes from: the
// scheduler's SlowFactor method when SimOptions.SlowFactor is 0, else the
// option. The result records it, and the decision log replays at it.
func TestDriveSlowFactor(t *testing.T) {
	cases := []struct {
		name      string
		s         func() Scheduler
		opt, want int
	}{
		{"neither", func() Scheduler { return &serialScheduler{gap: 40} }, 0, 1},
		{"option", func() Scheduler { return &serialScheduler{gap: 40} }, 3, 3},
		{"scheduler", func() Scheduler { return &slowSerial{serialScheduler{gap: 40}} }, 0, 2},
		{"option wins", func() Scheduler { return &slowSerial{serialScheduler{gap: 40}} }, 1, 1},
	}
	for _, c := range cases {
		in := testInstance(t, 10)
		rr, err := Run(in, c.s(), Options{Sim: core.SimOptions{SlowFactor: c.opt}})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if rr.SlowFactor != c.want {
			t.Errorf("%s: RunResult.SlowFactor = %d, want %d", c.name, rr.SlowFactor, c.want)
		}
		if _, err := core.Replay(in, rr.Decisions, core.SimOptions{SlowFactor: rr.SlowFactor}, nil); err != nil {
			t.Errorf("%s: decision log does not replay at speed %d: %v", c.name, rr.SlowFactor, err)
		}
		s := c.s()
		if _, err := RunStream(in.G, in.Objects, workload.NewInstanceSource(in), s,
			StreamOptions{Sim: core.SimOptions{SlowFactor: c.opt}}); err != nil {
			t.Fatalf("%s stream: %v", c.name, err)
		}
		if got := s.(interface{ speed() int }).speed(); got != c.want {
			t.Errorf("%s: RunStream ran at speed %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDriverDetectsWakeSpin(t *testing.T) {
	in := testInstance(t, 6)
	if _, err := Run(in, &wakeSpinner{}, Options{}); err == nil {
		t.Fatal("wake spinner should be detected")
	}
}

func TestSnapshotEvery(t *testing.T) {
	in := testInstance(t, 10)
	all, err := Run(in, &serialScheduler{}, Options{SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	none, err := Run(in, &serialScheduler{}, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Ratios) == 0 {
		t.Error("expected snapshots at every arrival")
	}
	if len(none.Ratios) != 0 {
		t.Error("SnapshotEvery<0 should disable snapshots")
	}
	some, err := Run(in, &serialScheduler{}, Options{SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(some.Ratios) >= len(all.Ratios) {
		t.Errorf("sampling did not reduce snapshots: %d vs %d", len(some.Ratios), len(all.Ratios))
	}
}

func TestRatioHelpers(t *testing.T) {
	rr := &RunResult{Ratios: []RatioPoint{{Ratio: 1}, {Ratio: 3}, {Ratio: 2}}}
	if m := rr.MeanRatio(); m != 2 {
		t.Errorf("MeanRatio = %v, want 2", m)
	}
	if m := (&RunResult{}).MeanRatio(); m != 0 {
		t.Errorf("empty MeanRatio = %v, want 0", m)
	}
}

func TestClosedLoopSerial(t *testing.T) {
	g, err := graph.Clique(6)
	if err != nil {
		t.Fatal(err)
	}
	objects := make([]*core.Object, 6)
	for i := range objects {
		objects[i] = &core.Object{ID: core.ObjID(i), Origin: graph.NodeID(i)}
	}
	rounds := 3
	gen := func(node graph.NodeID, round int) []core.ObjID {
		return []core.ObjID{core.ObjID((int(node) + round) % len(objects))}
	}
	rr, _, err := RunClosedLoop(g, ClosedLoopConfig{
		Objects: objects, Rounds: rounds, Gen: gen,
	}, &serialScheduler{gap: 4}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantTxns := 6 * rounds
	if len(rr.Decisions) != wantTxns {
		t.Errorf("decisions = %d, want %d (every node issues every round)", len(rr.Decisions), wantTxns)
	}
	if rr.Makespan <= 0 {
		t.Error("no makespan")
	}
}

// Closed loop invariant: a node never has two live transactions — the next
// one is issued only after the previous commits.
func TestClosedLoopOneLiveTransactionPerNode(t *testing.T) {
	g, err := graph.Line(5)
	if err != nil {
		t.Fatal(err)
	}
	objects := []*core.Object{{ID: 0, Origin: 0}, {ID: 1, Origin: 4}}
	gen := func(node graph.NodeID, round int) []core.ObjID {
		if (int(node)+round)%2 == 0 {
			return []core.ObjID{0}
		}
		return []core.ObjID{1}
	}
	rr, in, err := RunClosedLoop(g, ClosedLoopConfig{
		Objects: objects, Rounds: 4, Gen: gen,
	}, &serialScheduler{gap: 11}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Txns) != 5*4 {
		t.Fatalf("instance has %d transactions, want 20", len(in.Txns))
	}
	// Per-node intervals: each round's arrival must be strictly after the
	// previous round's execution.
	exec := map[core.TxID]core.Time{}
	for _, d := range rr.Decisions {
		exec[d.Tx] = d.Exec
	}
	type iv struct{ arr, exec core.Time }
	perNode := map[graph.NodeID][]iv{}
	for _, tx := range in.Txns {
		perNode[tx.Node] = append(perNode[tx.Node], iv{arr: tx.Arrival, exec: exec[tx.ID]})
	}
	for node, ivs := range perNode {
		if len(ivs) != 4 {
			t.Fatalf("node %d issued %d transactions, want 4", node, len(ivs))
		}
		for i := 1; i < len(ivs); i++ {
			if ivs[i].arr <= ivs[i-1].exec {
				t.Fatalf("node %d issued round %d at t=%d before round %d committed at t=%d",
					node, i, ivs[i].arr, i-1, ivs[i-1].exec)
			}
		}
	}
}

// nextStep decides every transaction for the step after its delivery and
// records the IDs of each delivered batch at the time of the call.
type nextStep struct {
	env     *Env
	batches map[core.Time][]core.TxID
}

func (s *nextStep) Name() string         { return "next-step" }
func (s *nextStep) Start(env *Env) error { s.env = env; return nil }
func (s *nextStep) OnArrive(txns []*core.Transaction) error {
	now := s.env.Sim.Now()
	for _, tx := range txns {
		s.batches[now] = append(s.batches[now], tx.ID)
		if err := s.env.Sim.Decide(tx.ID, now+1); err != nil {
			return err
		}
	}
	return nil
}
func (s *nextStep) NextWake() (core.Time, bool) { return 0, false }
func (s *nextStep) OnWake() error               { return nil }

// A feedback arrival that shares a step with an instance group joins that
// group's batch, and the next instance group still arrives intact: the
// append copies the group instead of writing into its neighbour.
// RunClosedLoop's own instance arrives at t=0 alone, so the test runs the
// closed-loop stream over an instance with later groups.
func TestClosedLoopFeedbackJoinsInstanceGroup(t *testing.T) {
	g, err := graph.Line(4)
	if err != nil {
		t.Fatal(err)
	}
	in := &core.Instance{G: g}
	for v := 0; v < 4; v++ {
		in.Objects = append(in.Objects, &core.Object{ID: core.ObjID(v), Origin: graph.NodeID(v)})
	}
	for i, at := range []core.Time{0, 2, 2, 3} {
		in.Txns = append(in.Txns, &core.Transaction{ID: core.TxID(i), Node: graph.NodeID(i),
			Arrival: at, Objects: []core.ObjID{core.ObjID(i)}})
	}
	// Node 0's transaction commits at t=1, so its next one arrives at t=2
	// with ID 4.
	stream := &closedLoopStream{
		gen:       func(v graph.NodeID, _ int) []core.ObjID { return []core.ObjID{core.ObjID(v)} },
		rounds:    2,
		round:     []int{1, 0, 0, 0},
		wait:      []clWaiter{{id: 0, node: 0}},
		pendIssue: map[core.Time][]graph.NodeID{},
	}
	s := &nextStep{batches: map[core.Time][]core.TxID{}}
	if _, err := run(in, s, stream, Options{}, "/closed-loop"); err != nil {
		t.Fatal(err)
	}
	want := map[core.Time][]core.TxID{0: {0}, 2: {1, 2, 4}, 3: {3}}
	if fmt.Sprint(s.batches) != fmt.Sprint(want) {
		t.Errorf("batches %v, want %v", s.batches, want)
	}
}

func TestClosedLoopValidation(t *testing.T) {
	g, _ := graph.Line(4)
	objs := []*core.Object{{ID: 0, Origin: 0}}
	gen := func(graph.NodeID, int) []core.ObjID { return []core.ObjID{0} }
	cases := []ClosedLoopConfig{
		{Objects: objs, Rounds: 0, Gen: gen},
		{Objects: objs, Rounds: 1, Gen: nil},
	}
	for i, cfg := range cases {
		if _, _, err := RunClosedLoop(g, cfg, &serialScheduler{}, Options{}); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestEnvString(t *testing.T) {
	// Smoke-test that scheduler names flow into results.
	in := testInstance(t, 6)
	rr, err := Run(in, &serialScheduler{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Scheduler != "serial" {
		t.Errorf("scheduler name = %q", rr.Scheduler)
	}
	_ = fmt.Sprint(rr.MaxRatio)
}

// pastWaker schedules serially and, on its first arrival after t=0, asks
// once for a wake one step in the past.
type pastWaker struct {
	serialScheduler
	wake         core.Time
	armed, fired bool
}

func (s *pastWaker) Name() string { return "past-waker" }
func (s *pastWaker) OnArrive(txns []*core.Transaction) error {
	if now := s.env.Sim.Now(); now > 0 && !s.fired {
		s.wake, s.armed, s.fired = now-1, true, true
	}
	return s.serialScheduler.OnArrive(txns)
}
func (s *pastWaker) NextWake() (core.Time, bool) { return s.wake, s.armed }
func (s *pastWaker) OnWake() error               { s.armed = false; return nil }

var errRefused = errors.New("refused")

// failing schedules serially but fails its first OnArrive, or with
// onWake set, the wake it requests one step after its first arrival.
type failing struct {
	serialScheduler
	onWake bool
	wake   core.Time
	armed  bool
}

func (s *failing) Name() string { return "failing" }
func (s *failing) OnArrive(txns []*core.Transaction) error {
	if !s.onWake {
		return errRefused
	}
	if !s.armed {
		s.wake, s.armed = s.env.Sim.Now()+1, true
	}
	return s.serialScheduler.OnArrive(txns)
}
func (s *failing) NextWake() (core.Time, bool) { return s.wake, s.armed }
func (s *failing) OnWake() error               { return errRefused }

// TestDriversRejectMisbehavingSchedulers pins the drive core's shared
// rules on every driver: a wake requested in the past is an error, and a
// scheduler's errors come back wrapped with its name and the time.
func TestDriversRejectMisbehavingSchedulers(t *testing.T) {
	g, err := graph.Clique(6)
	if err != nil {
		t.Fatal(err)
	}
	objects := make([]*core.Object, 6)
	for i := range objects {
		objects[i] = &core.Object{ID: core.ObjID(i), Origin: graph.NodeID(i)}
	}
	loop := ClosedLoopConfig{Objects: objects, Rounds: 3, Gen: func(node graph.NodeID, round int) []core.ObjID {
		return []core.ObjID{core.ObjID((int(node) + round) % len(objects))}
	}}
	drivers := map[string]func(Scheduler) error{
		"Run": func(s Scheduler) error {
			_, err := Run(testInstance(t, 6), s, Options{})
			return err
		},
		"RunStream": func(s Scheduler) error {
			in := testInstance(t, 6)
			_, err := RunStream(in.G, in.Objects, workload.NewInstanceSource(in), s, StreamOptions{})
			return err
		},
		"RunClosedLoop": func(s Scheduler) error {
			_, _, err := RunClosedLoop(g, loop, s, Options{})
			return err
		},
	}
	cases := []struct {
		name string
		mk   func() Scheduler
		want string
	}{
		{"past wake", func() Scheduler { return &pastWaker{} }, "sched: past-waker requested wake at t="},
		{"OnArrive error", func() Scheduler { return &failing{} }, "sched: failing OnArrive(t="},
		{"OnWake error", func() Scheduler { return &failing{onWake: true} }, "sched: failing OnWake(t="},
	}
	for dn, drive := range drivers {
		for _, c := range cases {
			err := drive(c.mk())
			switch {
			case err == nil:
				t.Errorf("%s/%s: want error, got nil", dn, c.name)
			case !strings.Contains(err.Error(), c.want):
				t.Errorf("%s/%s: error %q does not contain %q", dn, c.name, err, c.want)
			case c.name != "past wake" && !errors.Is(err, errRefused):
				t.Errorf("%s/%s: error %q does not wrap the scheduler's", dn, c.name, err)
			}
		}
	}
}
