package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dtm/internal/core"
	"dtm/internal/distbucket"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

func captureRun(t testing.TB) (*core.Instance, *Run) {
	t.Helper()
	g, err := graph.Line(10)
	if err != nil {
		t.Fatal(err)
	}
	in, err := workload.Generate(g, workload.Config{
		K: 2, NumObjects: 5, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := sched.Run(in, greedy.New(greedy.Options{}), sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return in, Capture(in, rr)
}

func TestCaptureAndValidate(t *testing.T) {
	_, r := captureRun(t)
	if err := r.Validate(); err != nil {
		t.Fatalf("captured run fails validation: %v", err)
	}
	if len(r.Decisions) != len(r.Txns) {
		t.Errorf("decisions %d != txns %d", len(r.Decisions), len(r.Txns))
	}
}

// A trace records the object speed its run used, without the caller
// naming it: the protocol's own half speed by default, full speed when
// the run sets it, and the central engines' full speed.
func TestCaptureRecordsRunSpeed(t *testing.T) {
	in, central := captureRun(t)
	if central.SlowObj != 1 {
		t.Errorf("central trace records slowObjects %d, want 1", central.SlowObj)
	}
	for _, c := range []struct{ opt, want int }{{0, 2}, {1, 1}} {
		rr, err := sched.Run(in, distbucket.New(distbucket.Options{}),
			sched.Options{Sim: core.SimOptions{SlowFactor: c.opt}})
		if err != nil {
			t.Fatal(err)
		}
		r := Capture(in, rr)
		if r.SlowObj != c.want {
			t.Errorf("SlowFactor %d: trace records slowObjects %d, want %d", c.opt, r.SlowObj, c.want)
		}
		if err := r.Validate(); err != nil {
			t.Errorf("SlowFactor %d: %v", c.opt, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	_, r := captureRun(t)
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Validate(); err != nil {
		t.Fatalf("round-tripped run fails validation: %v", err)
	}
	if r2.Makespan != r.Makespan || r2.Scheduler != r.Scheduler || len(r2.Edges) != len(r.Edges) {
		t.Error("round trip lost data")
	}
}

func TestValidateCatchesTampering(t *testing.T) {
	_, r := captureRun(t)
	// Move an execution earlier than physics allows.
	r.Decisions[len(r.Decisions)-1].Exec = 0
	err := r.Validate()
	if err == nil {
		t.Fatal("tampered trace should fail validation")
	}
	if !strings.Contains(err.Error(), "infeasible") {
		t.Errorf("tampered trace: %v, want an infeasible schedule", err)
	}
}

func TestValidateCatchesWrongMakespan(t *testing.T) {
	_, r := captureRun(t)
	r.Makespan += 5
	if err := r.Validate(); err == nil {
		t.Fatal("wrong recorded makespan should fail validation")
	}
}

// degradeRun turns a captured complete run into a degraded one: the last
// decided transaction loses its decision and is recorded as abandoned, with
// the makespan recomputed over the surviving schedule.
func degradeRun(t testing.TB, r *Run) core.TxID {
	t.Helper()
	last := r.Decisions[len(r.Decisions)-1]
	r.Decisions = r.Decisions[:len(r.Decisions)-1]
	r.Abandoned = append(r.Abandoned, last.Tx)
	in, err := r.Instance()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.ReplayAbandoned(in, r.Decisions, r.Abandoned, core.SimOptions{SlowFactor: r.SlowObj}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Makespan = res.Makespan
	return last.Tx
}

func TestAbandonedRoundTrip(t *testing.T) {
	_, r := captureRun(t)
	degradeRun(t, r)
	if err := r.Validate(); err != nil {
		t.Fatalf("degraded run fails validation: %v", err)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	r2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Validate(); err != nil {
		t.Fatalf("round-tripped degraded run fails validation: %v", err)
	}
	if len(r2.Abandoned) != len(r.Abandoned) {
		t.Errorf("abandoned set lost in round trip: %v vs %v", r2.Abandoned, r.Abandoned)
	}
}

func TestValidateRejectsAbandonedButExecuted(t *testing.T) {
	_, r := captureRun(t)
	// Mark a transaction abandoned while its decision is still recorded.
	r.Abandoned = append(r.Abandoned, r.Decisions[0].Tx)
	if err := r.Validate(); err == nil {
		t.Fatal("abandoned-but-executed transaction should fail validation")
	}
}

func TestValidateRejectsSilentlyMissingTx(t *testing.T) {
	_, r := captureRun(t)
	// Drop a decision without declaring the transaction abandoned.
	r.Decisions = r.Decisions[:len(r.Decisions)-1]
	if err := r.Validate(); err == nil {
		t.Fatal("unexecuted undeclared transaction should fail validation")
	}
}

// Validate refuses values that would break the replay instead of replaying
// them: an edge weight whose distance sums wrap int64 (Dijkstra used to
// loop on the wrapped parents), a node count no edge list connects
// (graph.New used to panic allocating it), and a slow factor that is
// negative or would wrap travel times. Each is malformed input, not an
// infeasible schedule.
func TestValidateRejectsOverflowingValues(t *testing.T) {
	for name, corrupt := range map[string]func(*Run){
		"weight": func(r *Run) { r.Edges[0].W = math.MaxInt64 },
		"nodes":  func(r *Run) { r.Nodes = 1 << 62 },
		// 2^30 × 2^33 wraps int64, so objects would arrive in the past.
		"slow": func(r *Run) {
			for i := range r.Edges {
				r.Edges[i].W = 1 << 30
			}
			r.SlowObj = 1 << 33
		},
		// A negative speed is malformed, not full speed.
		"negative slow": func(r *Run) { r.SlowObj = -7 },
	} {
		_, r := captureRun(t)
		corrupt(r)
		err := r.Validate()
		if err == nil {
			t.Errorf("%s: corrupt trace validates", name)
		} else if strings.Contains(err.Error(), "infeasible") {
			t.Errorf("%s: %v, want malformed input, not an infeasible schedule", name, err)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("garbage input: want error")
	}
}
