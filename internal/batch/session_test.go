package batch

import (
	"fmt"
	"math/rand"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

// sessionSchedulers are the schedulers the session API must reproduce
// byte-for-byte.
func sessionSchedulers() []Scheduler {
	return []Scheduler{
		Tour{},
		Coloring{},
		List{},
		Randomized{Seed: 42, Tries: 3},
		WithSuffixProperty(Tour{}),
		WithSuffixProperty(Randomized{Seed: 7, Tries: 2}),
	}
}

// assertSessionMatches checks that the session's Cost and Assign on its
// current set equal the one-shot scheduler evaluated on the same set in
// push order, and that both keep the floor contract (assertFloors).
func assertSessionMatches(t *testing.T, s Scheduler, sess Session, p *Problem, pushed []*core.Transaction) {
	t.Helper()
	ref := *p
	ref.Txns = pushed
	wantAsgn, wantErr := s.Schedule(&ref)
	gotCost, gotCostErr := sess.Cost()
	gotAsgn, gotAsgnErr := sess.Assign()
	if (wantErr == nil) != (gotCostErr == nil) || (wantErr == nil) != (gotAsgnErr == nil) {
		t.Fatalf("%s: error disagreement: one-shot %v, session cost %v, session assign %v",
			s.Name(), wantErr, gotCostErr, gotAsgnErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotCostErr.Error() {
			t.Fatalf("%s: error text differs:\none-shot: %v\nsession:  %v", s.Name(), wantErr, gotCostErr)
		}
		return
	}
	if want := wantAsgn.Makespan(p.Now); gotCost != want {
		t.Fatalf("%s: session cost = %d, one-shot makespan = %d", s.Name(), gotCost, want)
	}
	if len(gotAsgn) != len(wantAsgn) {
		t.Fatalf("%s: session assigned %d txns, one-shot %d", s.Name(), len(gotAsgn), len(wantAsgn))
	}
	for id, exec := range wantAsgn {
		if gotAsgn[id] != exec {
			t.Fatalf("%s: tx %d: session exec = %d, one-shot = %d", s.Name(), id, gotAsgn[id], exec)
		}
	}
	if got, want := sess.Len(), len(pushed); got != want {
		t.Fatalf("%s: Len() = %d, want %d", s.Name(), got, want)
	}
	assertFloors(t, s, gotCost, gotAsgn, p, pushed)
}

// assertFloors checks the batch.Scheduler floor contract that bucket.Place
// skips levels by: every transaction runs at or after p.Floor(tx), so the
// cost is at least Floor(tx) − Now. The caller has checked that the
// session and the one-shot path agree, so this covers both.
func assertFloors(t *testing.T, s Scheduler, cost core.Time, asgn Assignment, p *Problem, pushed []*core.Transaction) {
	t.Helper()
	for _, tx := range pushed {
		f, err := p.Floor(tx)
		if err != nil {
			t.Fatalf("%s: tx %d scheduled without an availability entry: %v", s.Name(), tx.ID, err)
		}
		if asgn[tx.ID] < f {
			t.Fatalf("%s: tx %d runs at %d, before its floor %d", s.Name(), tx.ID, asgn[tx.ID], f)
		}
		if cost < f-p.Now {
			t.Fatalf("%s: cost %d is below tx %d's floor %d less Now %d", s.Name(), cost, tx.ID, f, p.Now)
		}
	}
}

// TestSessionMatchesOneShot drives each session through randomized
// push/pop/reset sequences on several topologies and checks every
// intermediate state against the one-shot scheduler — the white-box
// counterpart of the engine differential test.
func TestSessionMatchesOneShot(t *testing.T) {
	tops := map[string]func() (*graph.Graph, error){
		"line":   func() (*graph.Graph, error) { return graph.Line(12) },
		"clique": func() (*graph.Graph, error) { return graph.Clique(8) },
	}
	for topName, mk := range tops {
		g, err := mk()
		if err != nil {
			t.Fatal(err)
		}
		txns, avail := randomBatch(t, g, 2, 6, 2*g.N(), 11)
		for _, s := range sessionSchedulers() {
			t.Run(fmt.Sprintf("%s/%s", topName, s.Name()), func(t *testing.T) {
				p := &Problem{G: g, Now: 0, Avail: avail}
				sess := NewSession(s, p, obs.New())
				rng := rand.New(rand.NewSource(99))
				var pushed []*core.Transaction
				next := 0
				for step := 0; step < 4*len(txns); step++ {
					switch op := rng.Intn(10); {
					case op < 6 && next < len(txns): // push
						sess.Push(txns[next])
						pushed = append(pushed, txns[next])
						next++
					case op < 8 && len(pushed) > 0: // pop
						sess.Pop()
						pushed = pushed[:len(pushed)-1]
						next-- // re-push the same txn later to keep coverage
					case op >= 8: // evaluate mid-sequence, sometimes at a later Now
						p.Now = core.Time(rng.Intn(5))
						assertSessionMatches(t, s, sess, p, pushed)
						p.Now = 0
					}
				}
				assertSessionMatches(t, s, sess, p, pushed)
				sess.Reset()
				if sess.Len() != 0 {
					t.Fatalf("Len() = %d after Reset, want 0", sess.Len())
				}
				// A reset session behaves like a fresh one.
				for _, tx := range txns[:len(txns)/2] {
					sess.Push(tx)
				}
				assertSessionMatches(t, s, sess, p, txns[:len(txns)/2])
			})
		}
	}
}

// TestSessionPopRestoresCost pins the rollback paths: pushing then popping
// one transaction returns the exact prior cost and assignment.
func TestSessionPopRestoresCost(t *testing.T) {
	g, err := graph.Line(10)
	if err != nil {
		t.Fatal(err)
	}
	txns, avail := randomBatch(t, g, 2, 4, 12, 5)
	for _, s := range sessionSchedulers() {
		p := &Problem{G: g, Now: 0, Avail: avail}
		sess := NewSession(s, p, obs.New())
		for _, tx := range txns[:6] {
			sess.Push(tx)
		}
		before, err := sess.Assign()
		if err != nil {
			t.Fatal(err)
		}
		sess.Push(txns[6])
		sess.Push(txns[7])
		sess.Pop()
		sess.Pop()
		after, err := sess.Assign()
		if err != nil {
			t.Fatal(err)
		}
		if len(before) != len(after) {
			t.Fatalf("%s: %d assignments after pop, want %d", s.Name(), len(after), len(before))
		}
		for id, exec := range before {
			if after[id] != exec {
				t.Fatalf("%s: tx %d: exec %d after pop, want %d", s.Name(), id, after[id], exec)
			}
		}
	}
}

// TestSessionAvailMissingError pins the error text of a probe over an
// object with no availability entry to the one-shot scheduler's.
func TestSessionAvailMissingError(t *testing.T) {
	g, err := graph.Clique(4)
	if err != nil {
		t.Fatal(err)
	}
	tx := &core.Transaction{ID: 3, Node: 1, Objects: []core.ObjID{7}}
	for _, s := range sessionSchedulers() {
		p := &Problem{G: g, Avail: map[core.ObjID]Avail{}}
		sess := NewSession(s, p, obs.New())
		sess.Push(tx)
		_, gotErr := sess.Cost()
		ref := *p
		ref.Txns = []*core.Transaction{tx}
		_, wantErr := s.Schedule(&ref)
		if gotErr == nil || wantErr == nil {
			t.Fatalf("%s: want errors from both paths, got session %v, one-shot %v", s.Name(), gotErr, wantErr)
		}
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error text differs:\nsession:  %v\none-shot: %v", s.Name(), gotErr, wantErr)
		}
	}
}

// TestSessionsReleaseTransactionPointers is the white-box leak guard for
// the session scratch: after Pop and Reset no *core.Transaction pointer
// may survive in the popped tail of any retained buffer, and the tour
// session's dense tables hold no first-user index and no state.
func TestSessionsReleaseTransactionPointers(t *testing.T) {
	g, err := graph.Line(8)
	if err != nil {
		t.Fatal(err)
	}
	txns, avail := randomBatch(t, g, 2, 4, 8, 3)
	p := &Problem{G: g, Avail: avail}

	checkTail := func(t *testing.T, name string, buf []*core.Transaction) {
		t.Helper()
		for i := len(buf); i < cap(buf); i++ {
			if buf[:cap(buf)][i] != nil {
				t.Fatalf("%s: retained transaction pointer at tail index %d", name, i)
			}
		}
	}

	for _, s := range sessionSchedulers() {
		sess := NewSession(s, p, obs.New())
		for _, tx := range txns {
			sess.Push(tx)
		}
		if _, err := sess.Assign(); err != nil {
			t.Fatal(err)
		}
		sess.Pop()
		sess.Pop()
		sess.Reset()
		switch ts := sess.(type) {
		case *tourSession:
			checkTail(t, "tourSession.txns", ts.txns)
			checkTail(t, "tourSession.comp", ts.comp)
			for o, i := range ts.firstUser {
				if i != -1 {
					t.Fatalf("tourSession.firstUser[%d] = %d after Reset, want -1", o, i)
				}
			}
			for i, st := range ts.states[:cap(ts.states)] {
				if st != nil {
					t.Fatalf("tourSession.states retains a state at index %d after Reset", i)
				}
			}
			for i, r := range ts.restore[:cap(ts.restore)] {
				if r.prev != nil {
					t.Fatalf("tourSession.restore retains a state at index %d after Reset", i)
				}
			}
		case *coloringSession:
			checkTail(t, "coloringSession.txns", ts.txns)
		case *oneShotSession:
			checkTail(t, "oneShotSession.txns", ts.txns)
			if ts.prob.Txns != nil {
				t.Fatal("oneShotSession.prob retains the transaction slice after Reset")
			}
		default:
			t.Fatalf("%s: unknown session type %T", s.Name(), sess)
		}
	}
}

// TestSessionMetrics checks the batch.* instruments: native sessions count
// pushes and evaluations without rebuilds; the adapter counts one rebuild
// per evaluation.
func TestSessionMetrics(t *testing.T) {
	g, err := graph.Line(6)
	if err != nil {
		t.Fatal(err)
	}
	txns, avail := randomBatch(t, g, 2, 3, 4, 1)
	p := &Problem{G: g, Avail: avail}

	m := obs.New()
	sess := NewSession(Tour{}, p, m)
	for _, tx := range txns {
		sess.Push(tx)
	}
	if _, err := sess.Cost(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Assign(); err != nil {
		t.Fatal(err)
	}
	if v := m.Counter(obs.NameBatchSessions).Value(); v != 1 {
		t.Errorf("batch.sessions = %d, want 1", v)
	}
	if v := m.Counter(obs.NameBatchSessionPushes).Value(); v != int64(len(txns)) {
		t.Errorf("batch.session_pushes = %d, want %d", v, len(txns))
	}
	if v := m.Counter(obs.NameBatchSessionCosts).Value(); v != 2 {
		t.Errorf("batch.session_costs = %d, want 2", v)
	}
	if v := m.Counter(obs.NameBatchSessionRebuilds).Value(); v != 0 {
		t.Errorf("batch.session_rebuilds = %d for native session, want 0", v)
	}

	m2 := obs.New()
	adapter := NewSession(List{}, p, m2)
	adapter.Push(txns[0])
	if _, err := adapter.Cost(); err != nil {
		t.Fatal(err)
	}
	if v := m2.Counter(obs.NameBatchSessionRebuilds).Value(); v != 1 {
		t.Errorf("batch.session_rebuilds = %d for adapter, want 1", v)
	}
}

// TestExtendAvail checks the shared availability assembly: existing entries
// are kept, missing ones resolved exactly once.
func TestExtendAvail(t *testing.T) {
	calls := map[core.ObjID]int{}
	resolve := func(o core.ObjID) Avail {
		calls[o]++
		return Avail{Node: graph.NodeID(o), Free: core.Time(o) * 10}
	}
	dst := map[core.ObjID]Avail{1: {Node: 5, Free: 99}}
	txns := []*core.Transaction{
		{ID: 0, Objects: []core.ObjID{1, 2}},
		{ID: 1, Objects: []core.ObjID{2, 3}},
	}
	ExtendAvail(dst, txns, resolve)
	if got := dst[1]; got != (Avail{Node: 5, Free: 99}) {
		t.Errorf("existing entry overwritten: %+v", got)
	}
	if calls[1] != 0 || calls[2] != 1 || calls[3] != 1 {
		t.Errorf("resolve call counts = %v, want {2:1 3:1}", calls)
	}
	if got := dst[3]; got != (Avail{Node: 3, Free: 30}) {
		t.Errorf("resolved entry = %+v, want {Node:3 Free:30}", got)
	}
}
