package core

import (
	"fmt"
	"slices"
	"sort"

	"dtm/internal/graph"
	"dtm/internal/obs"
)

// hopSim is the per-hop simulator that Sim replaced, frozen as the
// differential reference for moving objects per leg: every edge an
// object crosses is one arrival event, and an object re-targets toward
// its head pending user at every node it reaches. It keeps the model's
// semantics and nothing else: no retirement, no closed-loop additions,
// no counters. Its obs events are "decide", "commit" and one "move" per
// hop (Node = the hop's end, Value = its weight).
type hopSim struct {
	in   *Instance
	opts SimOptions
	now  Time
	objs []hopObj
	exec []Time // -1 = undecided
	done []bool

	events eventQueue
	seq    int64
	failed error

	dirtyMark []bool
	dirtyList []ObjID

	obs *obs.Metrics

	edgeBusy  map[edgeKey]int
	edgeQueue map[edgeKey][]ObjID
	due       map[TxID]bool
}

type hopObj struct {
	exists    bool
	at        graph.NodeID
	inTransit bool
	next      graph.NodeID
	arrive    Time
	curEdge   edgeKey
	queued    bool
	pending   []TxID
	traveled  graph.Weight
}

func newHopSim(in *Instance, opts SimOptions, m *obs.Metrics) (*hopSim, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	s := &hopSim{
		in:        in,
		opts:      opts,
		objs:      make([]hopObj, len(in.Objects)),
		exec:      make([]Time, len(in.Txns)),
		done:      make([]bool, len(in.Txns)),
		dirtyMark: make([]bool, len(in.Objects)),
		due:       make(map[TxID]bool),
		obs:       m,
	}
	if opts.LinkCapacity > 0 {
		s.edgeBusy = make(map[edgeKey]int)
		s.edgeQueue = make(map[edgeKey][]ObjID)
	}
	for i := range s.exec {
		s.exec[i] = -1
	}
	for _, o := range in.Objects {
		s.objs[o.ID].at = o.Origin
		s.push(o.Created, prioReady, int(o.ID))
	}
	return s, nil
}

func (s *hopSim) push(at Time, prio int64, id int) {
	s.events.push(event{at: at, key: prio<<prioShift | s.seq, id: id})
	s.seq++
}

func (s *hopSim) markDirty(o ObjID) {
	if !s.dirtyMark[o] {
		s.dirtyMark[o] = true
		s.dirtyList = append(s.dirtyList, o)
	}
}

func (s *hopSim) emit(e obs.Event) { s.obs.Emit(e) }

func (s *hopSim) Decide(tx TxID, exec Time) error {
	if s.failed != nil {
		return s.failed
	}
	if tx < 0 || int(tx) >= len(s.in.Txns) {
		return fmt.Errorf("hopsim: Decide: unknown transaction %d", tx)
	}
	if s.exec[tx] >= 0 {
		return fmt.Errorf("hopsim: Decide: transaction %d already scheduled", tx)
	}
	t := s.in.Txns[tx]
	if exec < s.now || exec < t.Arrival {
		return fmt.Errorf("hopsim: Decide: transaction %d execution t=%d too early", tx, exec)
	}
	s.exec[tx] = exec
	s.emit(obs.Event{At: int64(s.now), Kind: "decide", Tx: int(tx), Node: int(t.Node), Value: int64(exec)})
	s.push(exec, prioExec, int(tx))
	for _, o := range t.Objects {
		p := s.objs[o].pending
		i := 0
		for i < len(p) && (s.exec[p[i]] < exec || (s.exec[p[i]] == exec && p[i] < tx)) {
			i++
		}
		s.objs[o].pending = slices.Insert(p, i, tx)
		s.markDirty(o)
	}
	return nil
}

func (s *hopSim) NextInternalEvent() (Time, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

func (s *hopSim) AdvanceTo(t Time) error {
	if s.failed != nil {
		return s.failed
	}
	if t < s.now {
		return fmt.Errorf("hopsim: AdvanceTo: cannot rewind from t=%d to t=%d", s.now, t)
	}
	s.dispatchDirty()
	for len(s.events) > 0 && s.events[0].at <= t {
		at := s.events[0].at
		s.now = at
		for len(s.events) > 0 && s.events[0].at == at {
			e := s.events.pop()
			switch e.prio() {
			case prioReady:
				s.objs[e.id].exists = true
				s.markDirty(ObjID(e.id))
			case prioArrive:
				os := &s.objs[e.id]
				os.at = os.next
				os.inTransit = false
				s.markDirty(ObjID(e.id))
				if s.opts.LinkCapacity > 0 {
					s.releaseEdge(os.curEdge)
				}
			case prioExec:
				if err := s.executeTx(TxID(e.id)); err != nil {
					s.failed = err
					return err
				}
			}
		}
		s.attemptDue()
		s.dispatchDirty()
	}
	s.now = t
	return nil
}

func (s *hopSim) executeTx(tx TxID) error {
	if s.opts.LinkCapacity > 0 {
		if s.allPresent(tx) {
			s.commitTx(tx)
		} else {
			s.due[tx] = true
		}
		return nil
	}
	t := s.in.Txns[tx]
	for _, o := range t.Objects {
		os := &s.objs[o]
		var detail string
		switch {
		case !os.exists:
			detail = "object not created yet"
		case os.inTransit:
			detail = fmt.Sprintf("object in transit to node %d (arrives t=%d)", os.next, os.arrive)
		case os.at != t.Node:
			detail = fmt.Sprintf("object at node %d, transaction at node %d", os.at, t.Node)
		default:
			continue
		}
		return &ViolationError{Tx: tx, Obj: o, At: s.now, Detail: detail}
	}
	s.commitTx(tx)
	return nil
}

func (s *hopSim) commitTx(tx TxID) {
	t := s.in.Txns[tx]
	for _, o := range t.Objects {
		p := s.objs[o].pending
		if i := slices.Index(p, tx); i >= 0 {
			s.objs[o].pending = slices.Delete(p, i, i+1)
		}
		s.markDirty(o)
	}
	s.done[tx] = true
	delete(s.due, tx)
	s.emit(obs.Event{At: int64(s.now), Kind: "commit", Tx: int(tx), Node: int(t.Node), Value: int64(s.now - t.Arrival)})
}

func (s *hopSim) attemptDue() {
	for progress := len(s.due) > 0; progress; {
		progress = false
		ids := make([]TxID, 0, len(s.due))
		for id := range s.due {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, tx := range ids {
			if s.allPresent(tx) {
				s.commitTx(tx)
				progress = true
			}
		}
	}
}

func (s *hopSim) allPresent(tx TxID) bool {
	t := s.in.Txns[tx]
	for _, o := range t.Objects {
		os := &s.objs[o]
		if !os.exists || os.inTransit || os.at != t.Node || len(os.pending) == 0 || os.pending[0] != tx {
			return false
		}
	}
	return true
}

func (s *hopSim) dispatchDirty() {
	ids := s.dirtyList
	s.dirtyList = nil
	slices.Sort(ids)
	for _, o := range ids {
		s.dirtyMark[o] = false
		s.dispatch(o)
	}
}

func (s *hopSim) dispatch(o ObjID) {
	os := &s.objs[o]
	if !os.exists || os.inTransit || os.queued || len(os.pending) == 0 {
		return
	}
	target := s.in.Txns[os.pending[0]].Node
	if os.at == target {
		return
	}
	hop := s.in.G.NextHop(os.at, target)
	if cap := s.opts.LinkCapacity; cap > 0 {
		key := mkEdgeKey(os.at, hop)
		if s.edgeBusy[key] >= cap {
			os.queued = true
			s.edgeQueue[key] = append(s.edgeQueue[key], o)
			return
		}
		s.edgeBusy[key]++
		os.curEdge = key
	}
	w := s.in.G.Dist(os.at, hop)
	os.inTransit = true
	os.next = hop
	os.arrive = s.now + Time(w*s.opts.slow())
	os.traveled += w
	s.emit(obs.Event{At: int64(s.now), Kind: "move", Obj: int(o), Node: int(hop), Value: int64(w)})
	s.push(os.arrive, prioArrive, int(o))
}

func (s *hopSim) releaseEdge(key edgeKey) {
	if s.edgeBusy[key] > 0 {
		s.edgeBusy[key]--
	}
	q := s.edgeQueue[key]
	if len(q) == 0 {
		return
	}
	o := q[0]
	s.edgeQueue[key] = q[1:]
	s.objs[o].queued = false
	s.markDirty(o)
}

func (s *hopSim) ObjectLocation(o ObjID) ObjLoc {
	os := &s.objs[o]
	if os.inTransit {
		return ObjLoc{InTransit: true, Next: os.next, Arrive: os.arrive}
	}
	return ObjLoc{Node: os.at}
}

func (s *hopSim) ObjDistTo(o ObjID, x graph.NodeID) graph.Weight {
	os := &s.objs[o]
	if os.inTransit {
		return graph.Weight(os.arrive-s.now) + s.in.G.Dist(os.next, x)*s.opts.slow()
	}
	return s.in.G.Dist(os.at, x) * s.opts.slow()
}

func (s *hopSim) TotalComm() graph.Weight {
	var w graph.Weight
	for i := range s.objs {
		w += s.objs[i].traveled
	}
	return w
}

func (s *hopSim) allExecuted() bool { return !slices.Contains(s.done, false) }

// RunToCompletion advances through internal events until every
// transaction has executed.
func (s *hopSim) RunToCompletion() error {
	for !s.allExecuted() {
		next, ok := s.NextInternalEvent()
		if !ok {
			return fmt.Errorf("hopsim: stuck at t=%d", s.now)
		}
		if err := s.AdvanceTo(next); err != nil {
			return err
		}
	}
	return nil
}

// replayHops replays a sorted decision list through the per-hop
// reference, as Replay does through Sim.
func replayHops(in *Instance, decisions []Decision, opts SimOptions, m *obs.Metrics) (*hopSim, error) {
	s, err := newHopSim(in, opts, m)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(decisions); {
		at := decisions[i].At
		if err := s.AdvanceTo(at); err != nil {
			return s, err
		}
		for ; i < len(decisions) && decisions[i].At == at; i++ {
			if err := s.Decide(decisions[i].Tx, decisions[i].Exec); err != nil {
				return s, err
			}
		}
	}
	return s, s.RunToCompletion()
}

// HopCount replays a sorted decision list through the per-hop reference
// and returns the hops its objects made. It is exported for
// BenchmarkSimReplay in package core_test.
func HopCount(in *Instance, decisions []Decision, opts SimOptions) (int, error) {
	sink := &obs.SliceSink{}
	m := obs.New()
	m.SetSink(sink)
	if _, err := replayHops(in, decisions, opts, m); err != nil {
		return 0, err
	}
	return len(kinds(sink.Events(), "move")), nil
}
