package batch

// Fuzzer for the sessionized batch API: a byte-driven sequence of Push /
// Pop / Reset / set-Now / availability operations is applied to one live
// session per scheduler, and after every step each session's Cost and
// Assign must match the one-shot Schedule on the same transaction set in
// push order — including error/no-error agreement and error text — and
// run every transaction at or after its Problem.Floor, the bound
// bucket.Place skips levels by. This is
// the adversarial complement of the root engine differential test: the
// bucket engines only ever probe monotone per-level prefixes, while the
// fuzzer drives arbitrary interleavings of insertion, retraction, drain,
// clock movement, entry overwrites and lazy entry additions against the
// rollback union-find, the posting-list truncation, the tour components'
// Now-free summaries and the validated prefix. The topology argument
// picks Line(8), Clique(8) or Grid(3,3): on a line every metric-closure
// MST is the sorted path, while the clique's and grid's tied distances
// make the session's grown trees and the one-shot Build agree only
// through the strict edge order's tie-breaks.

import (
	"testing"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

func FuzzBatchIncremental(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(0), []byte{0, 17, 0, 33, 3, 0, 0, 129, 1, 0, 3, 0})
	f.Add(uint8(0), []byte{0, 1, 0, 2, 0, 3, 0, 4, 1, 0, 1, 0, 3, 5, 0, 9, 2, 0, 0, 66, 3, 1})
	f.Add(uint8(0), []byte{0, 255, 0, 254, 3, 7, 1, 0, 0, 200, 0, 100, 3, 3, 2, 0, 0, 50, 3, 0})
	// Tie-heavy topologies. Two pushes on the clique grow a tree whose
	// edges tie in weight, so only the strict order's tie-breaks make the
	// grown and the built tree agree. Then pushes that bridge components,
	// and pops.
	f.Add(uint8(1), []byte{0, 55, 0, 121})
	f.Add(uint8(1), []byte{0, 9, 0, 18, 0, 2, 0, 75, 3, 0, 0, 92, 3, 1, 1, 0, 3, 2, 4, 22, 0, 101, 3, 0})
	f.Add(uint8(2), []byte{0, 12, 0, 27, 0, 70, 0, 4, 3, 0, 0, 81, 0, 14, 3, 1, 1, 0, 1, 0, 3, 0, 4, 9, 0, 66, 3, 2})
	// Now moves several times with no push in between, so every
	// component is read from its summary at each new Now.
	f.Add(uint8(0), []byte{0, 17, 0, 33, 0, 70, 3, 0, 3, 2, 3, 4, 3, 1, 3, 3, 0, 105, 3, 4, 3, 4, 3, 0})
	f.Add(uint8(2), []byte{0, 9, 0, 74, 0, 36, 3, 1, 3, 4, 3, 4, 1, 0, 3, 2, 3, 3})
	// A transaction at object 1's node arriving at 3, after Now plus its
	// component's tour length: the summary's arrival term binds until Now
	// passes it. Then a second user of object 1 joins the component.
	f.Add(uint8(0), []byte{0, 19, 3, 0, 3, 1, 3, 2, 0, 67, 3, 0, 3, 4, 3, 1})
	f.Add(uint8(1), []byte{0, 19, 3, 0, 3, 2, 0, 73, 3, 0, 3, 4})
	// An overwrite moves object 0's entry from node 0 to node 7 under an
	// evaluated component: its summary is stale and must not be read.
	f.Add(uint8(0), []byte{0, 24, 3, 0, 4, 28, 3, 1})
	// Objects 4 and 5 start without an entry: the probe fails until op 5
	// adds one without SetAvail, the exempt lazy addition, and the
	// validated prefix must let the once-failing transaction through. A
	// pop below the mark and a second missing object follow.
	f.Add(uint8(0), []byte{0, 24, 0, 4, 3, 0, 5, 0, 3, 1, 1, 0, 0, 5, 3, 0, 5, 1, 3, 2})
	f.Add(uint8(2), []byte{0, 28, 0, 76, 3, 1, 5, 8, 3, 0, 0, 99, 3, 3, 5, 7, 3, 1, 4, 5, 3, 0})
	f.Fuzz(func(t *testing.T, topo uint8, data []byte) {
		var g *graph.Graph
		var err error
		switch topo % 3 {
		case 0:
			g, err = graph.Line(8)
		case 1:
			g, err = graph.Clique(8)
		default:
			g, err = graph.Grid(3, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		n := g.N()
		// Availability for objects 0–3 only; op bytes can still request
		// objects 4–5, exercising the missing-availability error paths
		// until op 5 adds their entries.
		avail := map[core.ObjID]Avail{
			0: {Node: 0, Free: 0},
			1: {Node: 3, Free: 2},
			2: {Node: 7, Free: 0},
			3: {Node: 5, Free: 9},
		}
		scheds := sessionSchedulers()
		probs := make([]*Problem, len(scheds))
		sessions := make([]Session, len(scheds))
		for i, s := range scheds {
			probs[i] = &Problem{G: g, Avail: avail}
			sessions[i] = NewSession(s, probs[i], obs.New())
		}
		var pushed []*core.Transaction
		var nextID core.TxID
		var now core.Time

		check := func() {
			for i, s := range scheds {
				assertSessionMatches(t, s, sessions[i], probs[i], pushed)
			}
		}
		for i := 0; i+1 < len(data) && nextID < 48; i += 2 {
			op, arg := data[i]%6, data[i+1]
			switch op {
			case 0: // push a transaction derived from arg
				// Object lists must be sorted and duplicate-free — the
				// core.Transaction invariant Instance.Validate enforces and
				// Conflicts' merge scan relies on.
				objs := []core.ObjID{core.ObjID(arg % 6)}
				if o2 := core.ObjID((arg / 8) % 6); arg&64 != 0 && o2 != objs[0] {
					objs = append(objs, o2)
					if objs[0] > objs[1] {
						objs[0], objs[1] = objs[1], objs[0]
					}
				}
				tx := &core.Transaction{
					ID:      nextID,
					Node:    graph.NodeID(int(arg) % n),
					Arrival: core.Time(arg % 4),
					Objects: objs,
				}
				nextID++
				pushed = append(pushed, tx)
				for _, sess := range sessions {
					sess.Push(tx)
				}
			case 1: // pop
				if len(pushed) > 0 {
					pushed = pushed[:len(pushed)-1]
				}
				for _, sess := range sessions {
					sess.Pop()
				}
			case 2: // reset (drain, as activation does)
				pushed = pushed[:0]
				for _, sess := range sessions {
					sess.Reset()
				}
			case 3: // move the clock and evaluate
				now += core.Time(arg % 5)
				for _, p := range probs {
					p.Now = now
				}
				check()
			case 4: // overwrite an availability entry, as the bucket engines do
				a := Avail{
					Node: graph.NodeID(int(arg/4) % n),
					Free: now + core.Time(arg%7),
				}
				for _, p := range probs {
					p.SetAvail(core.ObjID(arg%4), a)
				}
				check()
			case 5: // add a missing entry for object 4 or 5, which needs no SetAvail
				o := core.ObjID(4 + arg%2)
				if _, ok := avail[o]; !ok {
					avail[o] = Avail{
						Node: graph.NodeID(int(arg/2) % n),
						Free: now + core.Time(arg%7),
					}
				}
				check()
			}
		}
		check()
	})
}
