package core

import (
	"fmt"
	"slices"
	"sort"

	"dtm/internal/graph"
	"dtm/internal/obs"
)

// SimOptions are the physical model a Sim runs: object speed, link
// capacity, and the worker count of the tree warm-up.
type SimOptions struct {
	// SlowFactor multiplies object travel time per edge. The distributed
	// bucket protocol (Section V) halves object speed (SlowFactor 2) so
	// that discovery messages, which travel at full speed, always catch
	// moving objects. Zero means 1 (full speed); the sched drivers first
	// fill a zero from the scheduler's own SlowFactor method, if it has one.
	// NewSim refuses a negative one.
	SlowFactor int
	// LinkCapacity bounds how many objects may traverse one edge
	// simultaneously (0 = unbounded, the paper's model). The paper's
	// concluding remarks pose bounded-capacity links as an open problem;
	// with a bound set, objects queue at busy edges in deterministic
	// order, and since schedulers are capacity-oblivious, commits turn
	// elastic: a transaction executes at the first step >= its decided
	// time at which all its objects are present and it heads each
	// object's queue of decided users, ordered by (decided time, ID), so
	// an on-time transaction waits for late, earlier users. Latencies
	// then include congestion delay. NewSim refuses a negative capacity.
	LinkCapacity int
	// Parallel is the worker count of the tree warm-up: NewSim builds the
	// shortest-path tree of every node of the graph on that many workers
	// before the run starts, and every step after that runs sequentially
	// on the calling goroutine, so a run is byte-identical at every
	// value. 0 means no warm-up (trees build lazily on first use, the
	// default), 1 builds every tree up front on one worker, and negative
	// means GOMAXPROCS. See DESIGN.md §12.
	Parallel int
}

// simMetrics holds the engine's pre-resolved instrument handles.
type simMetrics struct {
	decisions  *obs.Counter   // core.decisions: Decide calls accepted
	commits    *obs.Counter   // core.commits: transactions executed
	violations *obs.Counter   // core.violations: infeasible schedules caught
	moves      *obs.Counter   // core.object_moves: legs started
	travel     *obs.Counter   // core.travel_weight: total weight of finished legs
	legs       *obs.Histogram // core.leg_weight: weight of each finished leg
	latency    *obs.Histogram // core.commit_latency: commit - arrival
	live       *obs.Gauge     // core.live_txns: decided but not committed
	linkQueued *obs.Counter   // core.link_queued: waits at saturated links
	elastic    *obs.Counter   // core.elastic_waits: commits past decided time
	added      *obs.Counter   // core.txns_added: closed-loop AddTransaction calls
}

func newSimMetrics(m *obs.Metrics) simMetrics {
	return simMetrics{
		decisions:  m.Counter(obs.NameCoreDecisions),
		commits:    m.Counter(obs.NameCoreCommits),
		violations: m.Counter(obs.NameCoreViolations),
		moves:      m.Counter(obs.NameCoreObjectMoves),
		travel:     m.Counter(obs.NameCoreTravelWeight),
		legs:       m.Histogram(obs.NameCoreLegWeight),
		latency:    m.Histogram(obs.NameCoreCommitLatency),
		live:       m.Gauge(obs.NameCoreLiveTxns),
		linkQueued: m.Counter(obs.NameCoreLinkQueued),
		elastic:    m.Counter(obs.NameCoreElasticWaits),
		added:      m.Counter(obs.NameCoreTxnsAdded),
	}
}

func (o SimOptions) slow() graph.Weight {
	if o.SlowFactor == 0 {
		return 1
	}
	return graph.Weight(o.SlowFactor)
}

// ObjLoc describes where an object is at the Sim's current time. If
// InTransit, the object has committed to its current edge and will reach
// Next at time Arrive (the paper's "artificial node" on the edge);
// otherwise it sits at Node.
type ObjLoc struct {
	InTransit bool
	Node      graph.NodeID // meaningful when !InTransit
	Next      graph.NodeID // meaningful when InTransit
	Arrive    Time         // meaningful when InTransit
}

// ViolationError reports that a transaction executed without one of its
// objects present — i.e. the schedule fed to the Sim was infeasible.
type ViolationError struct {
	Tx     TxID
	Obj    ObjID
	At     Time
	Detail string
}

func (e *ViolationError) Error() string {
	return fmt.Sprintf("core: schedule violation at t=%d: transaction %d missing object %d (%s)",
		e.At, e.Tx, e.Obj, e.Detail)
}

// Event priorities within one time step: objects are created and arrive
// before transactions execute.
const (
	prioReady = iota // object creation
	prioArrive
	prioExec
)

// prioShift places an event's priority above its push sequence number in
// event.key. The sequence number would need 2^56 pushes to reach the
// priority bits.
const prioShift = 56

type event struct {
	at  Time
	key int64 // prio<<prioShift | seq: orders one step's events
	id  int   // ObjID for ready/arrive, TxID for exec
}

func (e *event) prio() int64 { return e.key >> prioShift }

// before orders events by (at, key), that is by (time, priority, push
// order).
func (e *event) before(f *event) bool {
	return e.at < f.at || (e.at == f.at && e.key < f.key)
}

// eventQueue is the Sim's binary min-heap of events. It compares inline
// rather than through a function value, and moves a hole instead of
// swapping: every leg is one push and one pop.
type eventQueue []event

func (q *eventQueue) push(e event) {
	h := append(*q, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	i := 0
	for {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r].before(&h[m]) {
			m = r
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if i < n {
		h[i] = last
	}
	*q = h
	return top
}

type edgeKey struct{ u, v graph.NodeID }

func mkEdgeKey(a, b graph.NodeID) edgeKey {
	if a > b {
		a, b = b, a
	}
	return edgeKey{u: a, v: b}
}

// objState is one object. An object rests at a node, or travels on a
// leg: one stretch of shortest-path travel from at to end. On a leg it
// crosses, at each node u, the edge to NextHop(u, end), as if it were
// forwarded hop by hop. The cursor (next, nextAt, nextW) is the end of
// the hop in progress at the last walk (see walk): the node, the step
// the object reaches it, and the leg weight up to it. The cursor only
// moves forward, so all the walks along one leg read each hop once.
type objState struct {
	exists bool
	moving bool // on a leg
	queued bool // waiting for a busy edge (LinkCapacity mode)
	at     graph.NodeID
	end    graph.NodeID // the leg's end, when moving
	arrive Time         // the step the leg reaches end
	legW   graph.Weight // the leg's weight, Dist(at, end)
	next   graph.NodeID
	nextAt Time
	nextW  graph.Weight
	// pending lists the decided, unserved users, sorted by (exec, txID).
	pending []TxID
	// traveled is the weight of the object's finished legs.
	traveled graph.Weight
}

// Sim is the event-driven execution engine for the synchronous data-flow
// model. Feed it scheduling decisions with Decide and move time forward
// with AdvanceTo; it errors the moment a decision proves infeasible.
//
// Within one time step the Sim performs the paper's three node actions in
// order: receive objects, execute transactions whose step has come, then
// forward objects (dispatch). An object travels toward its head pending
// user on one leg, with a single arrival event at the leg's end; a
// decision that changes the user's node cuts the leg at the end of the
// hop in progress, where the object may turn (the paper's artificial
// node, Section III-B).
type Sim struct {
	in   *Instance
	opts SimOptions

	now  Time
	objs []objState
	// base counts retired transactions: every TxID < base committed and
	// was dropped by RetireDone, so in.Txns and the per-tx slices below
	// are windows holding TxIDs [base, base+len). base stays 0 unless a
	// streaming driver opts into retirement.
	base      int
	exec      []Time // per live-window tx; -1 = undecided
	decidedAt []Time // per live-window tx; -1 = undecided
	done      []bool
	doneAt    []Time // actual execution time (== exec unless commits are elastic)
	doneCount int    // transactions ever committed, including retired ones

	// Running commit aggregates, maintained across retirement (Result
	// covers only the live window once transactions retire).
	commitMakespan Time
	commitMaxLat   Time
	commitSumLat   Time

	events eventQueue
	seq    int64
	failed error
	// dispatched is the last step whose dispatch has run. Until it runs,
	// an object whose leg passes a node at the current step rests there.
	dispatched Time

	// The objects to dispatch at the current step: dirtyMark[o] is set
	// iff o is in dirtyList, so each object is listed once.
	dirtyMark []bool
	dirtyList []ObjID
	dispIDs   []ObjID // spare list dispatchDirty swaps with dirtyList

	obs *obs.Metrics
	met simMetrics

	// Bounded-capacity links (SimOptions.LinkCapacity); nil when links
	// are unbounded.
	edgeBusy  map[edgeKey]int
	edgeQueue map[edgeKey][]ObjID
	// Transactions past their decided time waiting for late objects or
	// earlier users (elastic commits, under SimOptions.LinkCapacity).
	due map[TxID]bool
}

// NewSim validates the instance and prepares a simulation at time 0. m
// collects engine metrics (decisions, legs and their weights, commits,
// live-set size) and streams fine-grained events to its sink; a nil m
// makes the Sim a private registry.
func NewSim(in *Instance, opts SimOptions, m *obs.Metrics) (*Sim, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if opts.SlowFactor < 0 {
		return nil, fmt.Errorf("core: negative slow factor %d", opts.SlowFactor)
	}
	if opts.LinkCapacity < 0 {
		return nil, fmt.Errorf("core: negative link capacity %d", opts.LinkCapacity)
	}
	if err := checkSlow(in.G, opts.slow()); err != nil {
		return nil, err
	}
	if m == nil {
		m = obs.New()
	}
	s := &Sim{
		in:        in,
		opts:      opts,
		objs:      make([]objState, len(in.Objects)),
		exec:      make([]Time, len(in.Txns)),
		decidedAt: make([]Time, len(in.Txns)),
		done:      make([]bool, len(in.Txns)),
		doneAt:    make([]Time, len(in.Txns)),
		dirtyMark: make([]bool, len(in.Objects)),
		due:       make(map[TxID]bool),
		obs:       m,
		met:       newSimMetrics(m),
	}
	if opts.LinkCapacity > 0 {
		s.edgeBusy = make(map[edgeKey]int)
		s.edgeQueue = make(map[edgeKey][]ObjID)
	}
	for i := range s.exec {
		s.exec[i] = -1
		s.decidedAt[i] = -1
	}
	for _, o := range in.Objects {
		s.objs[o.ID].at = o.Origin
		s.push(o.Created, prioReady, int(o.ID))
	}
	// Tree warm-up: objects travel along shortest paths and schedulers
	// weigh conflicts by distance, so a run reads the trees of most nodes.
	// Build them all now, on Parallel workers; the warm-up changes when
	// trees are built, never what a query returns.
	if opts.Parallel != 0 {
		in.G.WarmTrees(opts.Parallel)
	}
	return s, nil
}

// PathBound returns (N−1) × g's largest edge weight, saturating at
// graph.Infinite. A shortest path has at most N−1 edges, so it bounds
// every Dist.
func PathBound(g *graph.Graph) graph.Weight {
	return satMul(graph.Weight(g.N()-1), g.MaxEdgeWeight())
}

// checkSlow refuses a slow factor under which travel times could wrap:
// with PathBound times the slow factor below graph.Infinite, every
// Dist × slow the run computes stays below 2^62.
func checkSlow(g *graph.Graph, slow graph.Weight) error {
	if slow <= 1 {
		return nil
	}
	span := PathBound(g)
	if satMul(span, slow) >= graph.Infinite {
		return fmt.Errorf("core: slow factor %d times the path bound %d ((N-1) × largest edge weight) reaches %d",
			slow, span, graph.Infinite)
	}
	return nil
}

// satMul returns a × b for non-negative a and b, saturating at
// graph.Infinite.
func satMul(a, b graph.Weight) graph.Weight {
	if b != 0 && a > graph.Infinite/b {
		return graph.Infinite
	}
	return a * b
}

func (s *Sim) push(at Time, prio int64, id int) {
	s.events.push(event{at: at, key: prio<<prioShift | s.seq, id: id})
	s.seq++
}

// markDirty lists o for dispatch at the current step, once.
func (s *Sim) markDirty(o ObjID) {
	if !s.dirtyMark[o] {
		s.dirtyMark[o] = true
		s.dirtyList = append(s.dirtyList, o)
	}
}

// w maps a transaction ID into the live window. Callers must have checked
// that tx has not retired (tx >= base).
func (s *Sim) w(tx TxID) int { return int(tx) - s.base }

// txn returns the live-window transaction for tx.
func (s *Sim) txn(tx TxID) *Transaction { return s.in.Txns[int(tx)-s.base] }

// totalTxns is the number of transactions ever known: retired + live window.
func (s *Sim) totalTxns() int { return s.base + len(s.in.Txns) }

// Txn returns the transaction with ID tx, or nil if tx is out of range or
// has retired from the live window. Schedulers must use this instead of
// indexing Instance().Txns by ID — the window shifts under retirement —
// and may only look up transactions they still track as live (pending
// object users, unpruned conflicts): retired transactions are freed.
func (s *Sim) Txn(tx TxID) *Transaction {
	i := int(tx) - s.base
	if i < 0 || i >= len(s.in.Txns) {
		return nil
	}
	return s.in.Txns[i]
}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// SlowFactor returns the object speed divisor the run uses:
// SimOptions.SlowFactor, with 0 read as 1.
func (s *Sim) SlowFactor() int { return int(s.opts.slow()) }

// AddTransaction appends a transaction generated during the run — the
// paper's closed-loop process (Section III-C), where a node issues its
// next transaction one step after the previous one commits. The ID must be
// the next dense ID and the arrival must not be in the past.
func (s *Sim) AddTransaction(tx *Transaction) error {
	if s.failed != nil {
		return s.failed
	}
	if tx == nil {
		return fmt.Errorf("core: AddTransaction: nil transaction")
	}
	if tx.ID != TxID(s.totalTxns()) {
		return fmt.Errorf("core: AddTransaction: ID %d, want next dense ID %d", tx.ID, s.totalTxns())
	}
	if tx.Arrival < s.now {
		return fmt.Errorf("core: AddTransaction: arrival t=%d before now t=%d", tx.Arrival, s.now)
	}
	if err := s.in.checkTx(tx); err != nil {
		return fmt.Errorf("core: AddTransaction: %w", err)
	}
	s.in.Txns = append(s.in.Txns, tx)
	s.exec = append(s.exec, -1)
	s.decidedAt = append(s.decidedAt, -1)
	s.done = append(s.done, false)
	s.doneAt = append(s.doneAt, 0)
	s.met.added.Inc()
	return nil
}

// Instance returns the instance being simulated.
func (s *Sim) Instance() *Instance { return s.in }

// Decide fixes the execution time of tx. Decisions are irrevocable (the
// paper's schedulers never alter previously scheduled transactions) and must
// not be in the past or before the transaction's arrival.
func (s *Sim) Decide(tx TxID, exec Time) error {
	if s.failed != nil {
		return s.failed
	}
	if tx < 0 || int(tx) >= s.totalTxns() {
		return fmt.Errorf("core: Decide: unknown transaction %d", tx)
	}
	if int(tx) < s.base {
		return fmt.Errorf("core: Decide: transaction %d already retired", tx)
	}
	i := s.w(tx)
	if s.exec[i] >= 0 {
		return fmt.Errorf("core: Decide: transaction %d already scheduled for t=%d", tx, s.exec[i])
	}
	if exec < s.now {
		return fmt.Errorf("core: Decide: transaction %d execution t=%d is before now t=%d", tx, exec, s.now)
	}
	t := s.in.Txns[i]
	if exec < t.Arrival {
		return fmt.Errorf("core: Decide: transaction %d execution t=%d precedes arrival t=%d", tx, exec, t.Arrival)
	}
	s.exec[i] = exec
	s.decidedAt[i] = s.now
	s.met.decisions.Inc()
	s.met.live.Add(1)
	s.obs.Emit(obs.Event{At: int64(s.now), Kind: "decide", Tx: int(tx), Node: int(t.Node), Value: int64(exec)})
	s.push(exec, prioExec, int(tx))
	for _, o := range t.Objects {
		s.insertPending(o, tx)
		s.markDirty(o)
	}
	// Forwarding is deferred to the next AdvanceTo: all decisions made at
	// the current step see object positions as of this step, and objects
	// depart once, toward the earliest user across the whole batch of
	// decisions (the paper's receive/execute/forward step order).
	return nil
}

// insertPending keeps the object's user queue sorted by (exec, txID).
func (s *Sim) insertPending(o ObjID, tx TxID) {
	p := s.objs[o].pending
	i := 0
	for i < len(p) && (s.exec[s.w(p[i])] < s.exec[s.w(tx)] || (s.exec[s.w(p[i])] == s.exec[s.w(tx)] && p[i] < tx)) {
		i++
	}
	p = append(p, 0)
	copy(p[i+1:], p[i:])
	p[i] = tx
	s.objs[o].pending = p
}

func (s *Sim) removePending(o ObjID, tx TxID) {
	p := s.objs[o].pending
	for i, id := range p {
		if id == tx {
			s.objs[o].pending = append(p[:i], p[i+1:]...)
			return
		}
	}
}

// NextInternalEvent returns the time of the earliest unprocessed internal
// event, if any.
func (s *Sim) NextInternalEvent() (Time, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].at, true
}

// AdvanceTo processes every internal event with time <= t and moves the
// clock to t. It returns a *ViolationError as soon as a transaction
// executes without its objects.
func (s *Sim) AdvanceTo(t Time) error {
	if s.failed != nil {
		return s.failed
	}
	if t < s.now {
		return fmt.Errorf("core: AdvanceTo: cannot rewind from t=%d to t=%d", s.now, t)
	}
	// Forward objects for decisions made since the last advance; their
	// departure time is the current step.
	s.dispatchDirty()
	for len(s.events) > 0 && s.events[0].at <= t {
		at := s.events[0].at
		s.now = at
		// Drain every event at this timestamp in priority order
		// (receive, execute), then dispatch (forward).
		for len(s.events) > 0 && s.events[0].at == at {
			e := s.events.pop()
			switch e.prio() {
			case prioReady:
				s.objs[e.id].exists = true
				s.markDirty(ObjID(e.id))
			case prioArrive:
				s.arrive(ObjID(e.id), e.at)
			case prioExec:
				// Exec events sort after every receive at this timestamp,
				// so each check sees the step's final object positions.
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
	s.dispatched = t
	return nil
}

// arrive ends o's leg, unless the leg was cut and this is its old
// arrival (a cut pushes the leg's new one).
func (s *Sim) arrive(o ObjID, at Time) {
	os := &s.objs[o]
	if !os.moving || os.arrive != at {
		return
	}
	if s.opts.LinkCapacity > 0 {
		s.releaseEdge(mkEdgeKey(os.at, os.end)) // a bounded leg is one hop
	}
	os.at = os.end
	os.moving = false
	os.traveled += os.legW
	s.met.travel.Add(int64(os.legW))
	s.met.legs.Observe(int64(os.legW))
	s.markDirty(o)
}

// executeTx runs tx at its execution step. With bounded links commits
// are elastic: it commits only as allPresent allows, in each object's
// decided order, and waits otherwise. On unbounded links it commits if
// every object is present and fails with the first missing object.
func (s *Sim) executeTx(tx TxID) error {
	if s.opts.LinkCapacity > 0 {
		if s.allPresent(tx) {
			s.commitTx(tx)
			return nil
		}
		// Wait for the stragglers and for earlier users of the objects;
		// attemptDue retries as objects land and users commit.
		s.due[tx] = true
		s.met.elastic.Inc()
		return nil
	}
	t := s.txn(tx)
	for _, o := range t.Objects {
		os := &s.objs[o]
		var detail string
		if !os.exists {
			detail = "object not created yet"
		} else if loc := s.locate(os); loc.InTransit {
			detail = fmt.Sprintf("object in transit to node %d (arrives t=%d)", loc.Next, loc.Arrive)
		} else if loc.Node != t.Node {
			detail = fmt.Sprintf("object at node %d, transaction at node %d", loc.Node, t.Node)
		} else {
			continue
		}
		s.met.violations.Inc()
		return &ViolationError{Tx: tx, Obj: o, At: s.now, Detail: detail}
	}
	s.commitTx(tx)
	return nil
}

func (s *Sim) commitTx(tx TxID) {
	t := s.txn(tx)
	for _, o := range t.Objects {
		s.removePending(o, tx)
		s.markDirty(o)
	}
	i := s.w(tx)
	s.done[i] = true
	s.doneAt[i] = s.now
	s.doneCount++
	delete(s.due, tx)
	lat := s.now - t.Arrival
	if s.now > s.commitMakespan {
		s.commitMakespan = s.now
	}
	if lat > s.commitMaxLat {
		s.commitMaxLat = lat
	}
	s.commitSumLat += lat
	s.met.commits.Inc()
	s.met.live.Add(-1)
	s.met.latency.Observe(int64(lat))
	s.obs.Emit(obs.Event{At: int64(s.now), Kind: "commit", Tx: int(tx),
		Node: int(t.Node), Value: int64(lat)})
}

// attemptDue retries elastic transactions whose decided time has
// passed, in transaction-ID order, until no more can commit this step.
func (s *Sim) attemptDue() {
	if len(s.due) == 0 {
		return
	}
	for progress := true; progress; {
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

// allPresent serves elastic commits, which run only on bounded links,
// where every leg is one hop: an object on a leg is between nodes.
func (s *Sim) allPresent(tx TxID) bool {
	t := s.txn(tx)
	for _, o := range t.Objects {
		os := &s.objs[o]
		if !os.exists || os.moving || os.at != t.Node {
			return false
		}
		// Preserve each object's decided serialization order: commit only
		// as the head of every queue. Queues are sorted by the same
		// (exec, txID) key globally, so no head-waiting cycle can form.
		if len(os.pending) == 0 || os.pending[0] != tx {
			return false
		}
	}
	return true
}

// dispatchDirty performs the "forward objects" action for every object
// whose situation changed at the current step, in object-ID order (the
// order matters once links have bounded capacity).
func (s *Sim) dispatchDirty() {
	s.dispatched = s.now
	if len(s.dirtyList) == 0 {
		return
	}
	ids := s.dirtyList
	s.dirtyList = s.dispIDs[:0]
	slices.Sort(ids)
	for _, o := range ids {
		s.dirtyMark[o] = false
		s.dispatch(o)
	}
	s.dispIDs = ids[:0]
}

// dispatch starts o on a leg toward its head pending user, or cuts the
// leg it is on if that user's node is no longer the leg's end. On
// unbounded links a leg runs to the user's node; with LinkCapacity set it
// is one hop, so each edge is claimed as the object reaches it.
func (s *Sim) dispatch(o ObjID) {
	os := &s.objs[o]
	if !os.exists || os.queued || len(os.pending) == 0 {
		return
	}
	target := s.txn(os.pending[0]).Node
	if os.moving {
		if target != os.end {
			s.cut(o, os)
		}
		return
	}
	if os.at == target {
		return // wait at the requester until it executes
	}
	hop := s.in.G.NextHop(os.at, target)
	end := target
	if cap := s.opts.LinkCapacity; cap > 0 {
		end = hop
		key := mkEdgeKey(os.at, hop)
		if s.edgeBusy[key] >= cap {
			// The link is saturated: queue in deterministic (FIFO) order
			// and re-dispatch when a traverser arrives.
			os.queued = true
			s.edgeQueue[key] = append(s.edgeQueue[key], o)
			s.met.linkQueued.Inc()
			return
		}
		s.edgeBusy[key]++
	}
	// hop's parent in os.at's shortest-path tree is os.at, so its tree
	// distance is the weight of the edge between them.
	w := s.in.G.Dist(os.at, hop)
	legW := w
	if end != hop {
		legW = s.in.G.Dist(os.at, end)
	}
	slow := s.opts.slow()
	os.moving = true
	os.end = end
	os.arrive = s.now + Time(legW*slow)
	os.legW = legW
	os.next = hop
	os.nextAt = s.now + Time(w*slow)
	os.nextW = w
	s.met.moves.Inc()
	s.obs.Emit(obs.Event{At: int64(s.now), Kind: "move", Obj: int(o), Node: int(end), Value: int64(legW)})
	s.push(os.arrive, prioArrive, int(o))
}

// cut ends o's leg at the end of the hop in progress, the first node
// where per-hop forwarding would have turned toward the new user. A hop
// that departs at the current step is in progress. A leg whose hop in
// progress already ends at the leg's end is left as it is.
func (s *Sim) cut(o ObjID, os *objState) {
	s.walk(os)
	if os.next == os.end {
		return
	}
	os.end, os.arrive, os.legW = os.next, os.nextAt, os.nextW
	s.obs.Emit(obs.Event{At: int64(s.now), Kind: "cut", Obj: int(o), Node: int(os.end), Value: int64(os.arrive)})
	s.push(os.arrive, prioArrive, int(o))
}

// walk moves the cursor of an object on a leg to the hop in progress at
// the current step: the hop it crosses after this step's dispatch, or,
// before that dispatch, the hop that ends at this step if one does. It
// follows each node's own NextHop toward the leg's end, the path per-hop
// forwarding took. It reports whether the object rests at the cursor
// node: before the step's dispatch, an object whose leg passes a node at
// this step is there, as it was when every hop ended in an arrival.
func (s *Sim) walk(os *objState) (rests bool) {
	pre := s.now > s.dispatched
	for os.next != os.end && (os.nextAt < s.now || (os.nextAt == s.now && !pre)) {
		hop := s.in.G.NextHop(os.next, os.end)
		w := s.in.G.Dist(os.next, hop)
		os.next = hop
		os.nextAt += Time(w * s.opts.slow())
		os.nextW += w
	}
	return pre && os.nextAt == s.now
}

// locate reports where o is at the current step.
func (s *Sim) locate(os *objState) ObjLoc {
	if !os.moving {
		return ObjLoc{Node: os.at}
	}
	if s.walk(os) {
		return ObjLoc{Node: os.next}
	}
	return ObjLoc{InTransit: true, Next: os.next, Arrive: os.nextAt}
}

// releaseEdge frees one traversal slot and re-dispatches the next queued
// object, if any.
func (s *Sim) releaseEdge(key edgeKey) {
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
	// Re-evaluate from scratch: the head user may have changed while the
	// object waited.
	s.markDirty(o)
}

// ObjectLocation reports where object o is at the current time. An
// object on a leg is on the hop in progress (see walk).
func (s *Sim) ObjectLocation(o ObjID) ObjLoc { return s.locate(&s.objs[o]) }

// ObjDistTo returns a feasible travel time from object o's current position
// to node x: if the object is mid-edge it must first finish crossing
// (forward-only rule), matching the extended dependency graph's artificial
// node of Section III-B.
func (s *Sim) ObjDistTo(o ObjID, x graph.NodeID) graph.Weight {
	loc := s.locate(&s.objs[o])
	if loc.InTransit {
		return graph.Weight(loc.Arrive-s.now) + s.in.G.Dist(loc.Next, x)*s.opts.slow()
	}
	return s.in.G.Dist(loc.Node, x) * s.opts.slow()
}

// Executed returns the actual execution time of tx, if it has executed
// (equal to the decided time except under elastic commits). A retired
// transaction reports executed with a zero time — retirement drops the
// per-transaction record; callers that need exact times must query before
// RetireDone (no driver retires transactions it still interrogates).
func (s *Sim) Executed(tx TxID) (Time, bool) {
	if int(tx) < s.base {
		return 0, true
	}
	i := s.w(tx)
	if s.done[i] {
		return s.doneAt[i], true
	}
	return 0, false
}

// Scheduled returns the decided execution time of tx, if any. Retired
// transactions report scheduled with a zero time (see Executed).
func (s *Sim) Scheduled(tx TxID) (Time, bool) {
	if int(tx) < s.base {
		return 0, true
	}
	if i := s.w(tx); s.exec[i] >= 0 {
		return s.exec[i], true
	}
	return 0, false
}

// DecidedAt returns the time at which tx's execution time was decided.
// Retired transactions report decided with a zero time (see Executed).
func (s *Sim) DecidedAt(tx TxID) (Time, bool) {
	if int(tx) < s.base {
		return 0, true
	}
	if i := s.w(tx); s.decidedAt[i] >= 0 {
		return s.decidedAt[i], true
	}
	return 0, false
}

// AllExecuted reports whether every transaction has executed.
func (s *Sim) AllExecuted() bool { return s.doneCount == s.totalTxns() }

// RetireDone drops the longest committed prefix of the transaction window
// — the bounded-memory lever for streaming runs. It retires only when the
// prefix has at least min entries (batching keeps the shifts amortized
// O(1) per transaction) and returns how many it retired. Retired
// transactions vanish from the window (and from in.Txns — the driver owns
// the instance in streaming mode): Result no longer covers them, and
// Executed/Scheduled/DecidedAt degrade to existence answers. The running
// CommitStats and TotalComm aggregates are unaffected.
func (s *Sim) RetireDone(min int) int {
	if min < 1 {
		min = 1
	}
	k := 0
	for k < len(s.done) && s.done[k] {
		k++
	}
	if k < min {
		return 0
	}
	s.base += k
	n := copy(s.in.Txns, s.in.Txns[k:])
	for i := n; i < len(s.in.Txns); i++ {
		s.in.Txns[i] = nil // release the Transaction for collection
	}
	s.in.Txns = s.in.Txns[:n]
	s.exec = s.exec[:copy(s.exec, s.exec[k:])]
	s.decidedAt = s.decidedAt[:copy(s.decidedAt, s.decidedAt[k:])]
	s.done = s.done[:copy(s.done, s.done[k:])]
	s.doneAt = s.doneAt[:copy(s.doneAt, s.doneAt[k:])]
	return k
}

// LiveWindow reports the retirement state: how many transactions have been
// retired and how many remain in the live window.
func (s *Sim) LiveWindow() (retired, window int) {
	return s.base, len(s.in.Txns)
}

// CommitStats returns the running commit aggregates over every transaction
// ever committed — unlike Result, they survive retirement: the number of
// commits, the largest commit time, and the max and sum of commit
// latencies.
func (s *Sim) CommitStats() (count int, makespan, maxLat, sumLat Time) {
	return s.doneCount, s.commitMakespan, s.commitMaxLat, s.commitSumLat
}

// TotalComm returns the total distance traveled by all objects so far:
// their finished legs and, on a leg, the weight up to the cursor, so
// that a hop in progress counts in full from its departure.
func (s *Sim) TotalComm() graph.Weight {
	var w graph.Weight
	for i := range s.objs {
		os := &s.objs[i]
		w += os.traveled
		if os.moving {
			s.walk(os)
			w += os.nextW
		}
	}
	return w
}

// LastUser returns the final decided user of object o (the one with the
// largest execution time) and that time, or ok=false if no user is decided.
// Batch schedulers use it to derive object availability.
func (s *Sim) LastUser(o ObjID) (TxID, Time, bool) {
	p := s.objs[o].pending
	if len(p) == 0 {
		return 0, 0, false
	}
	tx := p[len(p)-1]
	return tx, s.exec[s.w(tx)], true
}

// Result summarizes a completed (or failed) run. It carries numbers
// only; whether the run failed is reported by the error returns of
// AdvanceTo, RunToCompletion and Replay (and by sched.RunResult.Err for a
// driven run).
type Result struct {
	Makespan  Time         // max execution time over all transactions
	MaxLat    Time         // max (exec - arrival)
	SumLat    Time         // sum of latencies
	Latency   []Time       // per-transaction latency, indexed by TxID
	TotalComm graph.Weight // total distance traveled by all objects
}

// MeanLat returns the mean transaction latency.
func (r *Result) MeanLat() float64 {
	if len(r.Latency) == 0 {
		return 0
	}
	return float64(r.SumLat) / float64(len(r.Latency))
}

// Result summarizes the run so far. Call after AllExecuted (or after an
// error) for final numbers. Once transactions have retired (RetireDone)
// the result covers only the live window, indexed from the retirement
// base; streaming drivers use CommitStats/TotalComm instead.
func (s *Sim) Result() *Result {
	r := &Result{Latency: make([]Time, len(s.in.Txns))}
	for i, t := range s.in.Txns {
		if !s.done[i] {
			continue
		}
		// doneAt equals the decided time except under elastic commits,
		// where congestion may delay commits past it.
		lat := s.doneAt[i] - t.Arrival
		r.Latency[i] = lat
		if s.doneAt[i] > r.Makespan {
			r.Makespan = s.doneAt[i]
		}
		if lat > r.MaxLat {
			r.MaxLat = lat
		}
		r.SumLat += lat
	}
	r.TotalComm = s.TotalComm()
	return r
}

// RunToCompletion advances through internal events until every transaction
// has executed, except the abandoned ones: a degraded run's transactions
// that were given up on, which must never execute. It fails if events run
// out first (some transaction was never scheduled) or if a violation
// occurs. With nothing abandoned it stops at the last commit; otherwise it
// drains every event before checking.
func (s *Sim) RunToCompletion(abandoned ...TxID) error {
	for !s.AllExecuted() {
		next, ok := s.NextInternalEvent()
		if !ok {
			break
		}
		if err := s.AdvanceTo(next); err != nil {
			return err
		}
	}
	if len(abandoned) == 0 {
		if !s.AllExecuted() {
			return fmt.Errorf("core: simulation stuck at t=%d with %d/%d transactions executed (undecided transactions?)",
				s.now, s.doneCount, s.totalTxns())
		}
		return nil
	}
	skip := make(map[TxID]bool, len(abandoned))
	for _, tx := range abandoned {
		skip[tx] = true
	}
	for _, tx := range s.in.Txns {
		_, done := s.Executed(tx.ID)
		if skip[tx.ID] && done {
			return fmt.Errorf("core: transaction %d marked abandoned but executed", tx.ID)
		}
		if !skip[tx.ID] && !done {
			return fmt.Errorf("core: transaction %d neither executed nor abandoned", tx.ID)
		}
	}
	return nil
}

// Decision is a scheduling decision for replay: at time At, transaction Tx
// was assigned execution time Exec.
type Decision struct {
	Tx   TxID
	Exec Time
	At   Time
}

// applyDecisions feeds a sorted decision list into the simulation.
// Decisions sharing a timestamp are applied as one batch before any
// forwarding happens: all of a step's decisions see that step's object
// positions (receive/execute/forward step order).
func applyDecisions(s *Sim, decisions []Decision) error {
	for i := 0; i < len(decisions); {
		at := decisions[i].At
		if at < s.Now() {
			return fmt.Errorf("core: Replay: decisions not sorted by At")
		}
		if err := s.AdvanceTo(at); err != nil {
			return err
		}
		for i < len(decisions) && decisions[i].At == at {
			if err := s.Decide(decisions[i].Tx, decisions[i].Exec); err != nil {
				return err
			}
			i++
		}
	}
	return nil
}

// Replay validates a full decision list against the model and returns the
// run's Result. Decisions must be sorted by At (ties allowed). m collects
// the replay's metrics and events as in NewSim, a private registry when
// nil.
func Replay(in *Instance, decisions []Decision, opts SimOptions, m *obs.Metrics) (*Result, error) {
	return ReplayAbandoned(in, decisions, nil, opts, m)
}

// ReplayAbandoned validates the decision list of a degraded run: one that
// explicitly gave up on the listed transactions (e.g. the distributed
// protocol under an injected fault plan). The decisions are applied as in
// Replay, and the result is valid iff every transaction either executed
// or is in the abandoned list — and no abandoned transaction executed
// (see RunToCompletion). With an empty abandoned list it is exactly
// Replay. The result is nil only when NewSim refuses the instance or the
// options; a schedule that fails replay returns the partial result.
func ReplayAbandoned(in *Instance, decisions []Decision, abandoned []TxID, opts SimOptions, m *obs.Metrics) (*Result, error) {
	s, err := NewSim(in, opts, m)
	if err != nil {
		return nil, err
	}
	if err := applyDecisions(s, decisions); err != nil {
		return s.Result(), err
	}
	if err := s.RunToCompletion(abandoned...); err != nil {
		return s.Result(), err
	}
	return s.Result(), nil
}
