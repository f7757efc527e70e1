package lowerbound

// Differential fuzzer for the incremental bound: a byte-driven sequence of
// live-set and availability changes on a small random graph, after each of
// which Tracker.Estimate must equal Estimate over the same live set and
// availability map.

import (
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
)

const (
	fuzzNodes   = 12
	fuzzObjects = 3
	fuzzOps     = 5
)

// trackerOp is one fuzz operation: kind (see FuzzTracker) and two operand
// bytes, x folded into the op byte and arg the byte after it.
type trackerOp struct{ kind, x, arg byte }

// trackerInput encodes a fuzz input: the graph seed, then two bytes per op.
func trackerInput(graphSeed byte, ops ...trackerOp) []byte {
	b := []byte{graphSeed}
	for _, op := range ops {
		b = append(b, op.kind+fuzzOps*op.x, op.arg)
	}
	return b
}

// Helpers naming the ops for the seed corpus. add's arg below 128 requests
// only object arg%3.
func addAt(node, obj byte) trackerOp     { return trackerOp{0, node, obj} }
func removeLive(i byte) trackerOp        { return trackerOp{1, 0, i} }
func moveAvail(obj, node byte) trackerOp { return trackerOp{2, node, obj} }
func freeAt(obj, after byte) trackerOp   { return trackerOp{3, after, obj} }
func advance(d byte) trackerOp           { return trackerOp{4, d, 0} }

func FuzzTracker(f *testing.F) {
	f.Add([]byte{})
	// Two transactions at one node: the node stays until both leave.
	f.Add(trackerInput(1, addAt(2, 0), addAt(2, 0), addAt(4, 0), removeLive(0), removeLive(0), removeLive(0)))
	// The availability node equal to a requester, then moved off it and
	// back (object 0 starts at node 0).
	f.Add(trackerInput(2, addAt(0, 0), addAt(3, 0), addAt(5, 0), moveAvail(0, 3), moveAvail(0, 1),
		freeAt(0, 6), advance(3), moveAvail(0, 5), advance(3)))
	// Removal down to one requester, then to none.
	f.Add(trackerInput(3, addAt(1, 1), addAt(2, 1), addAt(3, 1), removeLive(1), removeLive(0),
		moveAvail(1, 3), removeLive(0), addAt(4, 2)))
	// A node re-added after removal, with two-object transactions.
	f.Add(trackerInput(4, addAt(4, 1), addAt(5, 1), addAt(1, 200), removeLive(0), addAt(4, 1),
		removeLive(1), addAt(5, 131), freeAt(1, 7), advance(1), removeLive(2)))
	// Object 1 is weighed exactly at its availability node 1. Moved onto
	// its requester's node 4, its bound (0) is skipped, and back at node 1
	// its kept answer applies again, while object 0 holds the maximum.
	f.Add(trackerInput(5, addAt(4, 1), addAt(3, 0), addAt(9, 0), addAt(6, 0), freeAt(0, 7),
		moveAvail(1, 4), moveAvail(1, 1), advance(3), moveAvail(1, 4), addAt(8, 1), moveAvail(1, 1)))
	// The point nearest object 1's availability node leaves the tree, and
	// the availability moves onto the departed node.
	f.Add(trackerInput(6, addAt(2, 1), addAt(9, 1), addAt(5, 1), removeLive(0), moveAvail(1, 2),
		moveAvail(1, 1), removeLive(1), moveAvail(1, 9), addAt(2, 1), moveAvail(1, 5)))
	// A wait alone lifts a stale object's bound above the maximum.
	f.Add(trackerInput(7, addAt(4, 1), moveAvail(1, 4), freeAt(1, 7), advance(2), moveAvail(1, 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		g, err := graph.RandomConnected(fuzzNodes, 8, 5, int64(data[0]))
		if err != nil {
			t.Fatal(err)
		}
		avail := map[core.ObjID]Avail{}
		for o := core.ObjID(0); o < fuzzObjects; o++ {
			avail[o] = Avail{Node: graph.NodeID(o)}
		}
		tr := NewTracker(g)
		var live []*core.Transaction
		var now core.Time
		for i := 1; i+1 < len(data); i += 2 {
			kind, x, arg := data[i]%fuzzOps, data[i]/fuzzOps, data[i+1]
			switch kind {
			case 0: // add a transaction requesting one or two objects
				objs := []core.ObjID{core.ObjID(arg % fuzzObjects)}
				if second := core.ObjID(arg / fuzzObjects % fuzzObjects); arg >= 128 && second != objs[0] {
					objs = append(objs, second)
					if objs[1] < objs[0] {
						objs[0], objs[1] = objs[1], objs[0]
					}
				}
				tx := &core.Transaction{ID: core.TxID(i), Node: graph.NodeID(x % fuzzNodes), Arrival: now, Objects: objs}
				tr.Add(tx)
				live = append(live, tx)
			case 1: // remove a live transaction
				if len(live) == 0 {
					continue
				}
				j := int(arg) % len(live)
				tr.Remove(live[j])
				live = append(live[:j], live[j+1:]...)
			case 2: // move an object's availability node
				o := core.ObjID(arg % fuzzObjects)
				a := avail[o]
				a.Node = graph.NodeID(x % fuzzNodes)
				avail[o] = a
			case 3: // set an object's free time, possibly in the past
				o := core.ObjID(arg % fuzzObjects)
				a := avail[o]
				a.Free = now + core.Time(x%8) - 2
				avail[o] = a
			case 4: // advance time
				now += core.Time(x % 4)
			}
			want := Estimate(Input{G: g, Now: now, Txns: live, Avail: avail})
			got := tr.Estimate(now, func(o core.ObjID) Avail { return avail[o] })
			if got != want {
				t.Fatalf("op %d (kind %d): Tracker.Estimate = %d, Estimate = %d (now %d, %d live, avail %v)",
					i/2, kind, got, want, now, len(live), avail)
			}
		}
	})
}
