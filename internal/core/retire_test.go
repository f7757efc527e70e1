package core

// Windowed-retirement tests: RetireDone must be invisible to every
// aggregate (CommitStats, TotalComm, AllExecuted) while shrinking the live
// window, and the API must reject operations on retired transactions.

import (
	"testing"

	"dtm/internal/graph"
)

// retireInstance builds a line instance where transaction i arrives at
// time 4i at node i%n over a single object, so serial decisions commit
// them strictly in ID order — every prefix becomes retirable.
func retireInstance(t *testing.T, n, txns int) *Instance {
	t.Helper()
	objs := []*Object{{ID: 0, Origin: 0}}
	ts := make([]*Transaction, txns)
	for i := range ts {
		ts[i] = &Transaction{
			ID:      TxID(i),
			Node:    graph.NodeID(i % n),
			Arrival: Time(4 * i),
			Objects: []ObjID{0},
		}
	}
	return lineInstance(t, n, objs, ts)
}

// driveSerial decides every transaction with a generous serial schedule
// and advances past each commit, retiring after every step when min > 0.
// It returns the total retired count.
func driveSerial(t *testing.T, s *Sim, txns int, min int) int {
	t.Helper()
	retired := 0
	step := Time(0)
	for i := 0; i < txns; i++ {
		tx := TxID(i)
		arr := Time(4 * i)
		if step < arr {
			step = arr
		}
		// A line of any length is crossed in < 4n steps per hop budget;
		// schedule far enough apart that each exec is always feasible.
		step += Time(s.Instance().G.N() + 2)
		if arr > s.Now() {
			if err := s.AdvanceTo(arr); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Decide(tx, step); err != nil {
			t.Fatalf("decide %d at %d: %v", tx, step, err)
		}
		if err := s.AdvanceTo(step + 1); err != nil {
			t.Fatal(err)
		}
		if min > 0 {
			retired += s.RetireDone(min)
		}
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if min > 0 {
		retired += s.RetireDone(min)
	}
	return retired
}

func TestRetireMatchesKeepHistory(t *testing.T) {
	const txns = 40
	runStats := func(min int) (int, Time, Time, Time, graph.Weight, int) {
		s, err := NewSim(retireInstance(t, 6, txns), SimOptions{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		retired := driveSerial(t, s, txns, min)
		if !s.AllExecuted() {
			t.Fatal("not all executed")
		}
		count, makespan, maxLat, sumLat := s.CommitStats()
		return count, makespan, maxLat, sumLat, s.TotalComm(), retired
	}
	c0, mk0, mx0, sl0, tc0, r0 := runStats(0)
	c1, mk1, mx1, sl1, tc1, r1 := runStats(1)
	if r0 != 0 {
		t.Fatalf("no-retire run retired %d", r0)
	}
	if r1 != txns {
		t.Fatalf("retired %d of %d", r1, txns)
	}
	if c0 != c1 || mk0 != mk1 || mx0 != mx1 || sl0 != sl1 || tc0 != tc1 {
		t.Fatalf("aggregates differ: keep (%d,%d,%d,%d,%d) vs retire (%d,%d,%d,%d,%d)",
			c0, mk0, mx0, sl0, tc0, c1, mk1, mx1, sl1, tc1)
	}
	if c0 != txns {
		t.Fatalf("committed %d of %d", c0, txns)
	}
}

func TestRetireShrinksWindow(t *testing.T) {
	const txns = 30
	s, err := NewSim(retireInstance(t, 6, txns), SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	driveSerial(t, s, txns, 10)
	retired, window := s.LiveWindow()
	if retired != txns {
		t.Fatalf("retired %d, want %d", retired, txns)
	}
	if window != 0 {
		t.Fatalf("window %d after full retirement", window)
	}
	if len(s.Instance().Txns) != 0 {
		t.Fatalf("instance window holds %d transactions", len(s.Instance().Txns))
	}
	if !s.AllExecuted() {
		t.Fatal("AllExecuted false after retiring everything")
	}
}

func TestRetireDoneThreshold(t *testing.T) {
	const txns = 20
	s, err := NewSim(retireInstance(t, 6, txns), SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Nothing committed yet: nothing to retire.
	if k := s.RetireDone(1); k != 0 {
		t.Fatalf("retired %d before any commit", k)
	}
	driveSerial(t, s, txns, 0)
	// Prefix below the threshold is kept.
	if k := s.RetireDone(txns + 1); k != 0 {
		t.Fatalf("retired %d below threshold", k)
	}
	if k := s.RetireDone(txns); k != txns {
		t.Fatalf("retired %d, want %d", k, txns)
	}
	// Idempotent once drained.
	if k := s.RetireDone(1); k != 0 {
		t.Fatalf("second retire dropped %d", k)
	}
}

func TestRetiredTransactionAPI(t *testing.T) {
	const txns = 12
	s, err := NewSim(retireInstance(t, 6, txns), SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	driveSerial(t, s, txns, 0)
	if k := s.RetireDone(1); k != txns {
		t.Fatalf("retired %d, want %d", k, txns)
	}
	// Decide on a retired transaction is an explicit error.
	if err := s.Decide(0, s.Now()+100); err == nil {
		t.Error("Decide on retired transaction succeeded")
	}
	// Txn returns nil for retired IDs and out-of-range IDs.
	if tx := s.Txn(0); tx != nil {
		t.Errorf("Txn(0) = %+v after retirement", tx)
	}
	if tx := s.Txn(TxID(txns + 5)); tx != nil {
		t.Errorf("Txn past end = %+v", tx)
	}
	// The documented caveat: per-transaction queries on retired IDs
	// report done with a zeroed time.
	if e, ok := s.Executed(0); !ok || e != 0 {
		t.Errorf("Executed(retired) = (%d,%v), want (0,true)", e, ok)
	}
	if e, ok := s.Scheduled(0); !ok || e != 0 {
		t.Errorf("Scheduled(retired) = (%d,%v), want (0,true)", e, ok)
	}
	// New arrivals keep the dense-ID contract against the total count,
	// not the window length.
	next := &Transaction{ID: TxID(txns), Node: 0, Arrival: s.Now() + 1, Objects: []ObjID{0}}
	if err := s.AddTransaction(next); err != nil {
		t.Fatalf("AddTransaction after retirement: %v", err)
	}
	if err := s.AdvanceTo(next.Arrival); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(next.ID, next.Arrival+Time(s.Instance().G.N()+2)); err != nil {
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if !s.AllExecuted() {
		t.Error("post-retirement arrival never executed")
	}
}
