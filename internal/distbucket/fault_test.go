package distbucket

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"dtm/internal/core"
	"dtm/internal/distnet"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

func faultWorkload(t *testing.T, seed int64) (*graph.Graph, *core.Instance) {
	t.Helper()
	g, err := graph.Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 5, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 30, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g, in
}

// runWatched runs distbucket under a watchdog: a hang is itself a test
// failure (the never-hang guarantee), reported instead of a suite timeout.
func runWatched(t *testing.T, in *core.Instance, opts Options, sopts sched.Options) (outcome, error) {
	t.Helper()
	type out struct {
		res outcome
		err error
	}
	ch := make(chan out, 1)
	go func() {
		res, err := runOpts(in, opts, sopts)
		ch <- out{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-time.After(60 * time.Second):
		t.Fatal("distbucket run hung under faults")
		return outcome{}, nil
	}
}

// With the same fault plan, a run on trees built by the sim's concurrent
// warm-up (Sim.Parallel) matches the lazy run byte for byte: schedules,
// message counts, and abandoned sets. Each run gets a fresh graph.
func TestFaultySequentialMatchesParallel(t *testing.T) {
	plan := distnet.FaultPlan{Seed: 11, Drop: 0.05, Duplicate: 0.03, MaxJitter: 2}
	mk := func(parallel int) []byte {
		_, in := faultWorkload(t, 6)
		res, err := runWatched(t, in, Options{Seed: 8, Faults: FaultOptions{Plan: plan}},
			sched.Options{Sim: core.SimOptions{Parallel: parallel}})
		if err != nil {
			t.Fatalf("P=%d: %v", parallel, err)
		}
		return resultBytes(t, res)
	}
	if seq, par := mk(0), mk(2); !bytes.Equal(seq, par) {
		t.Errorf("faulted runs differ\nlazy:   %s\nwarmed: %s", seq, par)
	}
}

// Moderate loss must be absorbed by retries: the run completes every
// transaction, and the recovery layer visibly worked.
func TestDropRecoveryCompletes(t *testing.T) {
	_, in := faultWorkload(t, 3)
	m := obs.New()
	res, err := runWatched(t, in, Options{Seed: 5, Faults: FaultOptions{Plan: distnet.FaultPlan{Seed: 21, Drop: 0.05}}},
		sched.Options{Obs: m})
	if err != nil {
		t.Fatalf("5%% drop should be survivable: %v", err)
	}
	if len(res.Report.Abandoned) != 0 {
		t.Errorf("abandoned %d transactions at 5%% drop: %+v", len(res.Report.Abandoned), res.Report.Abandoned)
	}
	if res.CompletionRate() != 1 {
		t.Errorf("completion rate = %v, want 1", res.CompletionRate())
	}
	snap := m.Snapshot()
	if snap.Counters["distnet.dropped"] == 0 {
		t.Error("no messages dropped: fault plan not applied")
	}
	if snap.Counters["distbucket.retries"] == 0 {
		t.Error("no retries recorded: recovery layer not exercised")
	}
	if snap.Counters["distbucket.timeouts"] < snap.Counters["distbucket.retries"] {
		t.Error("timeouts should be >= retries (every retry follows a timeout)")
	}
}

// A node crashed across a transaction's whole lifetime abandons it with an
// explicit reason; everything else still completes.
func TestCrashedOriginAbandons(t *testing.T) {
	g, _ := graph.Line(8)
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: 2}},
		Txns: []*core.Transaction{
			{ID: 0, Node: 1, Arrival: 0, Objects: []core.ObjID{0}},
			{ID: 1, Node: 6, Arrival: 5, Objects: []core.ObjID{0}},
		},
	}
	plan := distnet.FaultPlan{Crashes: []distnet.CrashWindow{{Node: 6, From: 0, To: 1 << 30}}}
	res, err := runWatched(t, in, Options{Seed: 2, Faults: FaultOptions{Plan: plan}}, sched.Options{})
	if err != nil {
		t.Fatalf("crashed origin must degrade, not fail: %v", err)
	}
	if len(res.Report.Abandoned) != 1 || res.Report.Abandoned[0].Tx != 1 {
		t.Fatalf("abandoned = %+v, want exactly tx 1", res.Report.Abandoned)
	}
	if res.Report.Abandoned[0].Reason == "" {
		t.Error("abandoned transaction missing a reason")
	}
	if len(res.RunResult.Abandoned) != 1 || res.RunResult.Abandoned[0] != 1 {
		t.Errorf("RunResult.Abandoned = %v, want [1]", res.RunResult.Abandoned)
	}
	if got := res.CompletionRate(); got != 0.5 {
		t.Errorf("completion rate = %v, want 0.5", got)
	}
	if res.Latency[0] == 0 {
		t.Error("surviving transaction did not execute")
	}
}

// The satellite property: at drop <= 10%, every run either completes all
// transactions or explicitly reports the abandoned set — it never hangs and
// never fails with a stall. testing/quick drives the plan space.
func TestNeverHangsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	_, in := faultWorkload(t, 9)
	prop := func(seed int64, dropMil uint16, dupMil uint16, jitter uint8) bool {
		plan := distnet.FaultPlan{
			Seed:      seed,
			Drop:      float64(dropMil%101) / 1000.0, // 0..10%
			Duplicate: float64(dupMil%51) / 1000.0,   // 0..5%
			MaxJitter: core.Time(jitter % 4),
		}
		if !plan.Enabled() {
			plan.Drop = 0.01
		}
		done := make(chan bool, 1)
		go func() {
			res, err := runOpts(in, Options{Seed: 7, Faults: FaultOptions{Plan: plan}}, sched.Options{})
			if err != nil || res.RunResult == nil {
				t.Logf("plan %+v: run failed: %v", plan, err)
				done <- false
				return
			}
			// Completed or explicitly degraded: every transaction is either
			// executed (latency recorded via a decision) or abandoned.
			abandoned := make(map[core.TxID]bool, len(res.Report.Abandoned))
			for _, a := range res.Report.Abandoned {
				abandoned[a.Tx] = true
			}
			decided := make(map[core.TxID]bool, len(res.Decisions))
			for _, d := range res.Decisions {
				decided[d.Tx] = true
			}
			for _, tx := range in.Txns {
				if !decided[tx.ID] && !abandoned[tx.ID] {
					t.Logf("plan %+v: tx %d neither executed nor abandoned", plan, tx.ID)
					done <- false
					return
				}
			}
			done <- true
		}()
		select {
		case ok := <-done:
			return ok
		case <-time.After(90 * time.Second):
			t.Logf("plan %+v: hung", plan)
			return false
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
