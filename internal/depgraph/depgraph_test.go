package depgraph

import (
	"math/rand"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

// fakeOracle reports execution times from a plain map.
type fakeOracle map[core.TxID]core.Time

func (f fakeOracle) Executed(id core.TxID) (core.Time, bool) {
	et, ok := f[id]
	return et, ok
}

func tx(id core.TxID, node graph.NodeID, objs ...core.ObjID) *core.Transaction {
	return &core.Transaction{ID: id, Node: node, Objects: objs}
}

func neighborIDs(ix *Index, s Slot) map[core.TxID]core.Time {
	out := map[core.TxID]core.Time{}
	for _, nb := range ix.AppendNeighbors(s, nil) {
		if _, dup := out[nb.Tx]; dup {
			panic("duplicate neighbor")
		}
		out[nb.Tx] = nb.Exec
	}
	return out
}

func TestNeighborsDedupAndExcludeSelf(t *testing.T) {
	oracle := fakeOracle{}
	ix := NewIndex(oracle, obs.New())
	// tx0 and tx1 share two objects; the neighbor must appear once.
	s0 := ix.Insert(tx(0, 0, 1, 2))
	s1 := ix.Insert(tx(1, 3, 1, 2))
	ix.SetDecided(s1, 9)
	got := neighborIDs(ix, s0)
	if len(got) != 1 {
		t.Fatalf("neighbors of tx0 = %v, want exactly tx1", got)
	}
	if exec, ok := got[1]; !ok || exec != 9 {
		t.Fatalf("tx1 exec = %d (present %v), want 9", exec, ok)
	}
	// Before SetDecided, a neighbor reports Undecided.
	s2 := ix.Insert(tx(2, 1, 2))
	if got := neighborIDs(ix, s2); got[0] != Undecided || got[1] != 9 {
		t.Fatalf("neighbors of tx2 = %v, want tx0 undecided and tx1 at 9", got)
	}
	_ = s0
}

func TestRefreshPrunesExecutedAndRearmsStragglers(t *testing.T) {
	oracle := fakeOracle{}
	ix := NewIndex(oracle, obs.New())
	s0 := ix.Insert(tx(0, 0, 1))
	ix.SetDecided(s0, 5)
	s1 := ix.Insert(tx(1, 0, 1))
	ix.SetDecided(s1, 7)

	// At t=6: tx0 is due but (elastically) not yet executed — it must stay.
	ix.Refresh(6)
	if ix.Live() != 2 {
		t.Fatalf("live after elastic refresh = %d, want 2", ix.Live())
	}
	// tx0 finally executes at 8; at t=8 it is still live (et >= now)...
	oracle[0] = 8
	ix.Refresh(8)
	if ix.Live() != 2 {
		t.Fatalf("live at t=8 = %d, want 2 (executed exactly now is live)", ix.Live())
	}
	// ...and at t=9 it is gone, while tx1 (exec 7, never executed) stays.
	ix.Refresh(9)
	if ix.Live() != 1 {
		t.Fatalf("live at t=9 = %d, want 1", ix.Live())
	}
	if got := ix.Tracked(nil); len(got) != 1 || got[0] != 1 {
		t.Fatalf("tracked = %v, want [1]", got)
	}
	st := ix.Snapshot()
	if st.PostingEntries != 1 || st.FreeSlots != 1 {
		t.Fatalf("snapshot = %+v, want 1 posting entry and 1 free slot", st)
	}
}

func TestSlotReuseKeepsPostingsConsistent(t *testing.T) {
	// Randomized churn: insert/execute transactions over a small object
	// universe and verify after every step that posting-derived neighbor
	// sets equal a brute-force recomputation.
	oracle := fakeOracle{}
	ix := NewIndex(oracle, obs.New())
	rng := rand.New(rand.NewSource(11))
	liveTxns := map[core.TxID]*core.Transaction{}
	slots := map[core.TxID]Slot{}
	nextID := core.TxID(0)
	now := core.Time(0)
	for step := 0; step < 2000; step++ {
		now++
		// Execute a random live transaction (at its decided time = insert
		// time + 1, already past) and refresh.
		if len(liveTxns) > 0 && rng.Intn(3) == 0 {
			for id := range liveTxns {
				oracle[id] = now - 1
				break // map order randomness is fine here
			}
		}
		ix.Refresh(now)
		for id := range liveTxns {
			if et, ok := oracle[id]; ok && et < now {
				delete(liveTxns, id)
				delete(slots, id)
			}
		}
		// Insert a fresh transaction on 1-3 random objects out of 8.
		k := 1 + rng.Intn(3)
		objSet := map[core.ObjID]bool{}
		for len(objSet) < k {
			objSet[core.ObjID(rng.Intn(8))] = true
		}
		objs := make([]core.ObjID, 0, k)
		for o := core.ObjID(0); o < 8; o++ {
			if objSet[o] {
				objs = append(objs, o)
			}
		}
		ntx := tx(nextID, graph.NodeID(nextID%16), objs...)
		nextID++
		s := ix.Insert(ntx)
		ix.SetDecided(s, now)
		liveTxns[ntx.ID] = ntx
		slots[ntx.ID] = s

		if ix.Live() != len(liveTxns) {
			t.Fatalf("step %d: live = %d, want %d", step, ix.Live(), len(liveTxns))
		}
		// Brute-force neighbor check for the new transaction.
		want := map[core.TxID]bool{}
		for id, other := range liveTxns {
			if id != ntx.ID && ntx.Conflicts(other) {
				want[id] = true
			}
		}
		got := neighborIDs(ix, s)
		if len(got) != len(want) {
			t.Fatalf("step %d: neighbors = %v, want %v", step, got, want)
		}
		for id := range want {
			if _, ok := got[id]; !ok {
				t.Fatalf("step %d: missing neighbor %d", step, id)
			}
		}
	}
	if st := ix.Snapshot(); st.ArenaBytes <= 0 {
		t.Fatalf("arena bytes = %d, want positive", st.ArenaBytes)
	}
}
