package depgraph

// Fuzzer for the persistent conflict index: a byte-driven sequence of
// Insert / SetDecided / execute / Refresh operations is replayed against
// a naive shadow model (a plain map with the rebuild path's prune rule),
// and the index's tracked set, bookkeeping counters, and neighbor
// queries must agree with the model after every step. This is the
// structural complement of the root differential test, which pins the
// colors; here the index internals (free-list, postings, expiry queue,
// generation-stamped dedup) are exercised on adversarial op orders the
// schedulers never produce.

import (
	"sort"
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

// mapOracle is the shadow ExecOracle: explicit executed times.
type mapOracle map[core.TxID]core.Time

func (o mapOracle) Executed(id core.TxID) (core.Time, bool) {
	t, ok := o[id]
	return t, ok
}

// shadowTx is the model's view of one tracked transaction.
type shadowTx struct {
	tx   *core.Transaction
	slot Slot
	exec core.Time // Undecided until SetDecided
}

func FuzzIndexInvariants(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 0, 2, 0, 3, 4, 0, 7, 3, 9})
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 0, 1, 1, 1, 2, 2, 0, 2, 1, 3, 8, 0, 5, 3, 12})
	f.Add([]byte{0, 255, 0, 254, 0, 253, 1, 0, 2, 0, 3, 200, 0, 252, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		oracle := mapOracle{}
		ix := NewIndex(oracle, obs.New())
		model := map[core.TxID]*shadowTx{}
		var nextID core.TxID
		var now core.Time
		// decided lists tracked IDs with a decided time, in decision order,
		// so op bytes can address them deterministically.
		var decided, undecided []core.TxID

		for i := 0; i+1 < len(data) && nextID < 64; i += 2 {
			op, arg := data[i]%4, data[i+1]
			switch op {
			case 0: // insert a transaction touching 1–3 of 8 objects
				objs := []core.ObjID{core.ObjID(arg % 8)}
				if arg&8 != 0 {
					objs = append(objs, core.ObjID((arg/16)%8))
				}
				if arg&128 != 0 {
					objs = append(objs, core.ObjID((arg/32)%8))
				}
				// The index treats objects as a multiset of postings; keep
				// them distinct like instance validation does.
				sort.Slice(objs, func(a, b int) bool { return objs[a] < objs[b] })
				dedup := objs[:1]
				for _, o := range objs[1:] {
					if o != dedup[len(dedup)-1] {
						dedup = append(dedup, o)
					}
				}
				tx := &core.Transaction{
					ID: nextID, Node: graph.NodeID(int(arg) % 4), Arrival: now, Objects: dedup,
				}
				nextID++
				s := ix.Insert(tx)
				model[tx.ID] = &shadowTx{tx: tx, slot: s, exec: Undecided}
				undecided = append(undecided, tx.ID)
			case 1: // decide an undecided tracked transaction
				if len(undecided) == 0 {
					continue
				}
				id := undecided[int(arg)%len(undecided)]
				st := model[id]
				st.exec = now + core.Time(arg%16)
				ix.SetDecided(st.slot, st.exec)
				undecided = removeID(undecided, id)
				decided = append(decided, id)
			case 2: // execute a decided transaction at (or after) its time
				if len(decided) == 0 {
					continue
				}
				id := decided[int(arg)%len(decided)]
				if _, done := oracle[id]; done {
					continue
				}
				oracle[id] = model[id].exec + core.Time(arg%3) // elastic: possibly late
			case 3: // advance time and refresh
				now += core.Time(arg%16) + 1
				ix.Refresh(now)
				// Model prune rule: executed strictly before now.
				for id := range model {
					if et, ok := oracle[id]; ok && et < now {
						delete(model, id)
						decided = removeID(decided, id)
					}
				}
				checkAgainstModel(t, ix, model)
			}
		}
		checkAgainstModel(t, ix, model)
	})
}

func removeID(ids []core.TxID, id core.TxID) []core.TxID {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// checkAgainstModel asserts every observable of the index against the
// shadow model.
func checkAgainstModel(t *testing.T, ix *Index, model map[core.TxID]*shadowTx) {
	t.Helper()

	// Tracked: sorted and exactly the model's live set.
	tracked := ix.Tracked(nil)
	if !sort.SliceIsSorted(tracked, func(i, j int) bool { return tracked[i] < tracked[j] }) {
		t.Fatalf("Tracked not sorted: %v", tracked)
	}
	if len(tracked) != len(model) {
		t.Fatalf("Tracked has %d txns, model has %d (%v)", len(tracked), len(model), tracked)
	}
	for _, id := range tracked {
		if model[id] == nil {
			t.Fatalf("Tracked contains pruned/unknown tx %d", id)
		}
	}

	// Bookkeeping counters.
	st := ix.Snapshot()
	if st.LiveVertices != len(model) || st.LiveVertices != ix.Live() {
		t.Fatalf("LiveVertices = %d (Live %d), model has %d", st.LiveVertices, ix.Live(), len(model))
	}
	wantPostings := 0
	for _, s := range model {
		wantPostings += len(s.tx.Objects)
	}
	if st.PostingEntries != wantPostings {
		t.Fatalf("PostingEntries = %d, model says %d", st.PostingEntries, wantPostings)
	}
	if st.FreeSlots < 0 || st.ArenaBytes < 0 {
		t.Fatalf("negative bookkeeping: %+v", st)
	}
	if walked := walkArenaBytes(ix); st.ArenaBytes != walked {
		t.Fatalf("ArenaBytes = %d from the running totals, %d from a walk of the postings", st.ArenaBytes, walked)
	}

	// Neighbor queries: for every live tx, the distinct conflicting live
	// txs with their decided times, regardless of insertion order.
	for id, s := range model {
		got := ix.AppendNeighbors(s.slot, nil)
		seen := map[core.TxID]core.Time{}
		for _, nb := range got {
			if nb.Tx == id {
				t.Fatalf("tx %d returned as its own neighbor", id)
			}
			if _, dup := seen[nb.Tx]; dup {
				t.Fatalf("neighbor %d of tx %d appears twice: %v", nb.Tx, id, got)
			}
			seen[nb.Tx] = nb.Exec
		}
		for oid, o := range model {
			if oid == id {
				continue
			}
			if conflicts(s.tx, o.tx) {
				exec, ok := seen[oid]
				if !ok {
					t.Fatalf("missing neighbor %d of tx %d (objects %v vs %v)", oid, id, s.tx.Objects, o.tx.Objects)
				}
				if exec != o.exec {
					t.Fatalf("neighbor %d of tx %d has exec %d, model says %d", oid, id, exec, o.exec)
				}
				delete(seen, oid)
			}
		}
		if len(seen) != 0 {
			t.Fatalf("spurious neighbors of tx %d: %v", id, seen)
		}
	}
}

// conflicts is the naive shared-object test (both Object slices sorted).
func conflicts(a, b *core.Transaction) bool {
	for _, x := range a.Objects {
		for _, y := range b.Objects {
			if x == y {
				return true
			}
		}
	}
	return false
}

// walkArenaBytes is arenaBytes by a walk of every posting list, the
// reference for the index's running capacity total.
func walkArenaBytes(ix *Index) int64 {
	b := int64(cap(ix.slots))*slotBytes + int64(cap(ix.stamp))*stampBytes + int64(cap(ix.free))*freeBytes
	for _, p := range ix.posts {
		b += int64(cap(p)) * prefBytes
	}
	return b + int64(ix.expire.Len())*expiryBytes
}
