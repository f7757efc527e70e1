// Package distbucket implements Algorithm 3 of Busch et al. (IPPS 2020):
// the distributed bucket schedule. All coordination happens through
// messages over the communication graph (internal/distnet) while object
// physics run in the core engine at half speed (the paper's device so that
// full-speed control messages always outrun objects).
//
// Roles, all co-located on ordinary nodes:
//
//   - Home/directory: each object's creation node tracks its availability
//     (node and time it becomes free after its last scheduled user) and the
//     registered requesters. The IPPS paper carries this metadata on the
//     object itself and tracks moving objects by chasing; a home-based
//     directory is the standard DTM substitute (Arrow/Ballistic lineage,
//     the paper's refs [17, 28]) and adds only O(D) additive latency —
//     see DESIGN.md §2.
//   - Transaction origin: discovers its objects' positions and the
//     conflicting transactions through the homes, derives the radius y,
//     picks the lowest cover layer whose home cluster contains its
//     y-neighborhood, and reports to that cluster's leader (Algorithm 3,
//     lines 2-6).
//   - Leader: maintains partial buckets per level; on the globally aligned
//     activation step of level i (every 2^i steps) it reserves the bucket's
//     objects at their homes in ascending object order (deadlock-free
//     ordered acquisition — the serialization the paper gets from Lemma 6's
//     sub-layer disjointness), runs the offline batch algorithm A on the
//     granted fresh availability, announces execution times to the
//     transactions' nodes, and releases the homes with updated
//     availability.
package distbucket

import (
	"fmt"
	"sort"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/cover"
	"dtm/internal/distnet"
	"dtm/internal/graph"
	"dtm/internal/obs"
)

// Message payloads. All payloads are immutable after send.

type arrivalMsg struct{ Tx core.TxID }

// Attempt fields number the retransmissions of a request (0 = first try).
// They exist for log/debug value only — receivers treat every attempt the
// same and deduplicate by content keys — and stay 0 on fault-free runs.

type reqMsg struct {
	Obj     core.ObjID
	Tx      core.TxID
	TxNode  graph.NodeID
	Attempt int
}

type txRef struct {
	Tx   core.TxID
	Node graph.NodeID
}

type infoMsg struct {
	Obj       core.ObjID
	Tx        core.TxID
	Avail     batch.Avail
	Conflicts []txRef
}

type objSnapshot struct {
	Obj   core.ObjID
	Avail batch.Avail
}

// clusterRef identifies a sparse-cover cluster; partial buckets are kept
// per (cluster, level), as in the paper.
type clusterRef struct {
	Layer    int
	SubLayer int
	Index    int
}

type reportMsg struct {
	Tx      core.TxID
	Node    graph.NodeID
	Cluster clusterRef
	Objs    []objSnapshot
	Attempt int
}

type reserveMsg struct {
	Obj     core.ObjID
	Session int64
	Attempt int
}

type grantMsg struct {
	Obj     core.ObjID
	Session int64
	Avail   batch.Avail
}

type releaseMsg struct {
	Obj      core.ObjID
	Session  int64
	NewAvail batch.Avail
	// Restore releases the reservation without touching the home's
	// availability — an abandoned session returning an object unused.
	Restore bool
	Attempt int
}

type decideMsg struct {
	Tx   core.TxID
	Exec core.Time
}

// Acknowledgements, sent only on faulty networks (cfg.faulty); the
// fault-free protocol carries no acks, keeping zero-plan runs byte-identical
// to the original. reserveAckMsg doubles as a queue heartbeat: "your reserve
// is registered, the object is busy" — it resets the leader's retry backoff
// so a long legitimate queue wait is not mistaken for loss.

type reportAckMsg struct{ Tx core.TxID }

type reserveAckMsg struct {
	Obj     core.ObjID
	Session int64
}

type releaseAckMsg struct {
	Obj     core.ObjID
	Session int64
}

// decision is what the lockstep driver drains from node handlers.
type decision struct {
	tx   core.TxID
	exec core.Time
}

// protoMetrics holds the protocol's instrument handles, shared by all node
// handlers; they are the run's only count of what the protocol did.
type protoMetrics struct {
	discoveries *obs.Counter   // distbucket.discoveries: discovery rounds started
	reports     *obs.Counter   // distbucket.reports: reports received by leaders
	inserted    *obs.Counter   // distbucket.insertions: partial-bucket insertions
	overflow    *obs.Counter   // distbucket.overflows: forced into the top level
	activations *obs.Counter   // distbucket.activations: sessions started
	reserves    *obs.Counter   // distbucket.reserves: home reservations received
	grants      *obs.Counter   // distbucket.grants: grants received by leaders
	releases    *obs.Counter   // distbucket.releases: home releases received
	retries     *obs.Counter   // distbucket.retries: requests retransmitted
	timeouts    *obs.Counter   // distbucket.timeouts: request deadlines expired
	level       *obs.Histogram // distbucket.bucket_level: insertion level
	layer       *obs.Histogram // distbucket.cover_layer: cover layer of each report sent
}

func newProtoMetrics(m *obs.Metrics) protoMetrics {
	return protoMetrics{
		discoveries: m.Counter(obs.NameDistbucketDiscoveries),
		reports:     m.Counter(obs.NameDistbucketReports),
		inserted:    m.Counter(obs.NameDistbucketInsertions),
		overflow:    m.Counter(obs.NameDistbucketOverflows),
		activations: m.Counter(obs.NameDistbucketActivations),
		reserves:    m.Counter(obs.NameDistbucketReserves),
		grants:      m.Counter(obs.NameDistbucketGrants),
		releases:    m.Counter(obs.NameDistbucketReleases),
		retries:     m.Counter(obs.NameDistbucketRetries),
		timeouts:    m.Counter(obs.NameDistbucketTimeouts),
		level:       m.Histogram(obs.NameDistbucketBucketLevel),
		layer:       m.Histogram(obs.NameDistbucketCoverLayer),
	}
}

// config is shared, read-only state for all node handlers.
type config struct {
	in       *core.Instance
	sim      *core.Sim // transaction lookups only (Sim.Txn); nodes never read its state
	g        *graph.Graph
	hier     *cover.Hierarchy
	batch    batch.Scheduler
	slow     graph.Weight
	maxLevel int
	met      protoMetrics
	obs      *obs.Metrics // the run's registry, for the batch-session instruments

	// Reliability layer (recovery.go): active only when the network has a
	// fault plan. With faulty false, every ack/retry/dedup path is skipped
	// and the protocol is byte-identical to the fault-free original.
	faulty      bool
	maxJitter   core.Time // the plan's per-message delay bound
	maxAttempts int       // consecutive unanswered attempts before giving up
}

func (c *config) home(o core.ObjID) graph.NodeID { return c.in.Objects[o].Origin }

// discovery tracks a transaction waiting for home replies.
type discovery struct {
	tx      *core.Transaction
	waiting int
	objs    []objSnapshot
	refs    []txRef
	have    map[core.ObjID]bool // replies received (dedup; faulty runs only)
}

// reservation serializes leaders' access to one object at its home.
type reservation struct {
	holderSession int64
	holderNode    graph.NodeID
	holderAvail   batch.Avail // what the grant carried, for idempotent re-grants
	queue         []reserveReq
}

type reserveReq struct {
	session int64
	node    graph.NodeID
}

// partial is one partial bucket at a leader: its waiting transactions in
// insertion order and the persistent batch session its probes run
// through, which holds the same transactions (Push on place, Reset when
// the bucket drains into a protocol session).
type partial struct {
	txs  []*core.Transaction
	sess batch.Session
}

// session is one in-flight bucket activation at a leader.
type session struct {
	id      int64
	txs     []*core.Transaction
	objs    []core.ObjID
	granted map[core.ObjID]batch.Avail
	next    int
}

// node is the per-node protocol handler.
type node struct {
	cfg *config
	id  graph.NodeID

	// home state; newNode gives avail an entry for every object homed
	// here, and entries are only ever overwritten
	avail    map[core.ObjID]batch.Avail
	reqs     map[core.ObjID][]txRef
	reserved map[core.ObjID]*reservation

	// origin state
	discov map[core.TxID]*discovery

	// leader state: one record per partial bucket, keyed per (cluster,
	// level) and made at the key's first probe, and the latest
	// availability heard of per object. known is also the availability
	// map of the one live problem every partial's session probes: each
	// object of a reported transaction has an entry from its report on,
	// and setKnown is its only writer. Node handlers are single-threaded,
	// so no locking.
	buckets   map[bucketKey]*partial
	known     map[core.ObjID]batch.Avail
	probeProb batch.Problem
	sess      *session
	sessSeq   int64
	due       []bucketKey // activation queue of partial buckets
	decisions []decision
	// reported records, per transaction handled by this node's discovery,
	// which cluster it reported to (for the Lemma 6 audit).
	reported map[core.TxID]clusterRef

	// Reliability state (recovery.go); all maps stay empty on fault-free
	// runs, where no code path touches them.
	pend         []*pending                // outstanding requests with deadlines
	abandoned    []AbandonedTx             // transactions this node gave up on
	sentReports  map[core.TxID]reportMsg   // origin: reports awaiting leader ack
	seenReports  map[core.TxID]bool        // leader: processed reports (dedup)
	relBuf       map[objSession]releaseMsg // leader: releases awaiting home ack
	finishedSess map[objSession]bool       // home: sessions already released
}

// objSession keys per-(object, session) reliability state.
type objSession struct {
	obj  core.ObjID
	sess int64
}

// AbandonedTx records one transaction the protocol gave up on and why.
type AbandonedTx struct {
	Tx     core.TxID
	Reason string
}

func newNode(cfg *config, id graph.NodeID) *node {
	n := &node{
		cfg:      cfg,
		id:       id,
		avail:    make(map[core.ObjID]batch.Avail),
		reqs:     make(map[core.ObjID][]txRef),
		reserved: make(map[core.ObjID]*reservation),
		discov:   make(map[core.TxID]*discovery),
		buckets:  make(map[bucketKey]*partial),
		reported: make(map[core.TxID]clusterRef),
		known:    make(map[core.ObjID]batch.Avail),
	}
	n.probeProb = batch.Problem{G: cfg.g, Avail: n.known, Slow: cfg.slow}
	if cfg.faulty {
		n.sentReports = make(map[core.TxID]reportMsg)
		n.seenReports = make(map[core.TxID]bool)
		n.relBuf = make(map[objSession]releaseMsg)
		n.finishedSess = make(map[objSession]bool)
	}
	for _, o := range cfg.in.Objects {
		if o.Origin == id {
			n.avail[o.ID] = batch.Avail{Node: o.Origin, Free: o.Created}
		}
	}
	return n
}

// HandleEvent implements distnet.Handler.
func (n *node) HandleEvent(ctx *distnet.Ctx, ev distnet.Event) {
	switch p := ev.Payload.(type) {
	case arrivalMsg:
		n.onArrival(ctx, p)
	case reqMsg:
		n.onReq(ctx, ev.From, p)
	case infoMsg:
		n.onInfo(ctx, p)
	case reportMsg:
		n.onReport(ctx, p)
	case reserveMsg:
		n.onReserve(ctx, ev.From, p)
	case grantMsg:
		n.onGrant(ctx, p)
	case releaseMsg:
		n.onRelease(ctx, ev.From, p)
	case reportAckMsg:
		n.onReportAck(p)
	case reserveAckMsg:
		n.onReserveAck(ctx, p)
	case releaseAckMsg:
		n.onReleaseAck(p)
	case decideMsg:
		// Notification only: the transaction's node learns its execution
		// time. The decision itself was recorded at the leader when the
		// bucket activated (see finishSession).
		_ = p
	case nil:
		if ev.Kind == distnet.KindWake {
			n.onWake(ctx)
		}
	default:
		panic(fmt.Sprintf("distbucket: node %d: unknown payload %T", n.id, ev.Payload))
	}
}

// onArrival starts discovery for a locally generated transaction
// (Algorithm 3, lines 2-3).
func (n *node) onArrival(ctx *distnet.Ctx, m arrivalMsg) {
	tx := n.cfg.sim.Txn(m.Tx)
	d := &discovery{tx: tx, waiting: len(tx.Objects)}
	if n.cfg.faulty {
		d.have = make(map[core.ObjID]bool)
	}
	n.discov[m.Tx] = d
	n.cfg.met.discoveries.Inc()
	for _, o := range tx.Objects {
		ctx.Send(n.cfg.home(o), reqMsg{Obj: o, Tx: m.Tx, TxNode: n.id})
		if n.cfg.faulty {
			n.track(ctx, &pending{kind: pendDiscover, tx: m.Tx, obj: o, dst: n.cfg.home(o)})
		}
	}
}

// onReq serves a directory lookup: register the requester and reply with
// availability plus the conflicting transactions known so far. Retransmitted
// lookups are served idempotently: the requester keeps its original position
// in the registration order and receives the same conflict set it would have
// the first time, so a lost infoMsg is recoverable without double-counting.
func (n *node) onReq(ctx *distnet.Ctx, from graph.NodeID, m reqMsg) {
	if n.cfg.faulty {
		for i, r := range n.reqs[m.Obj] {
			if r.Tx == m.Tx {
				conflicts := append([]txRef(nil), n.reqs[m.Obj][:i]...)
				ctx.Send(from, infoMsg{Obj: m.Obj, Tx: m.Tx, Avail: n.avail[m.Obj], Conflicts: conflicts})
				return
			}
		}
	}
	conflicts := append([]txRef(nil), n.reqs[m.Obj]...)
	n.reqs[m.Obj] = append(n.reqs[m.Obj], txRef{Tx: m.Tx, Node: m.TxNode})
	ctx.Send(from, infoMsg{Obj: m.Obj, Tx: m.Tx, Avail: n.avail[m.Obj], Conflicts: conflicts})
}

// onInfo gathers home replies; when all arrive, derive y and report to the
// proper cluster leader (Algorithm 3, lines 4-6).
func (n *node) onInfo(ctx *distnet.Ctx, m infoMsg) {
	d, ok := n.discov[m.Tx]
	if !ok {
		return
	}
	if n.cfg.faulty {
		if d.have[m.Obj] {
			return // duplicate reply (retransmission or network duplication)
		}
		d.have[m.Obj] = true
	}
	d.objs = append(d.objs, objSnapshot{Obj: m.Obj, Avail: m.Avail})
	d.refs = append(d.refs, m.Conflicts...)
	d.waiting--
	if d.waiting > 0 {
		return
	}
	delete(n.discov, m.Tx)
	var y graph.Weight
	for _, os := range d.objs {
		if dd := ctx.Dist(n.id, os.Avail.Node); dd > y {
			y = dd
		}
	}
	for _, r := range d.refs {
		if dd := ctx.Dist(n.id, r.Node); dd > y {
			y = dd
		}
	}
	layer, cl := n.cfg.hier.HomeForRadius(n.id, y)
	n.cfg.met.layer.Observe(int64(layer))
	ref := clusterRef{Layer: cl.Layer, SubLayer: cl.SubLayer, Index: cl.Index}
	n.reported[m.Tx] = ref
	sort.Slice(d.objs, func(i, j int) bool { return d.objs[i].Obj < d.objs[j].Obj })
	rm := reportMsg{Tx: m.Tx, Node: n.id, Cluster: ref, Objs: d.objs}
	ctx.Send(cl.Leader, rm)
	if n.cfg.faulty {
		n.sentReports[m.Tx] = rm
		n.track(ctx, &pending{kind: pendReport, tx: m.Tx, dst: cl.Leader})
	}
}

// bucketKey identifies one partial bucket: a cluster and a level.
type bucketKey struct {
	cluster clusterRef
	level   int
}

func bucketKeyLess(a, b bucketKey) bool {
	if a.level != b.level {
		return a.level < b.level
	}
	if a.cluster.Layer != b.cluster.Layer {
		return a.cluster.Layer < b.cluster.Layer
	}
	if a.cluster.SubLayer != b.cluster.SubLayer {
		return a.cluster.SubLayer < b.cluster.SubLayer
	}
	return a.cluster.Index < b.cluster.Index
}

// onReport places the transaction in the smallest-level partial bucket
// whose batch cost stays within 2^i, then arms the activation timer.
func (n *node) onReport(ctx *distnet.Ctx, m reportMsg) {
	if n.cfg.faulty {
		if n.seenReports[m.Tx] {
			ctx.Send(m.Node, reportAckMsg{Tx: m.Tx}) // re-ack: first ack was lost
			return
		}
		n.seenReports[m.Tx] = true
		ctx.Send(m.Node, reportAckMsg{Tx: m.Tx})
	}
	n.cfg.met.reports.Inc()
	// A report holds one snapshot per object of the transaction, so once
	// they are learned every entry Place reads is in known.
	for _, os := range m.Objs {
		n.learn(os)
	}
	tx := n.cfg.sim.Txn(m.Tx)
	n.probeProb.Now = ctx.Now()
	placed, overflowed, err := bucket.Place(&n.probeProb, tx, n.cfg.maxLevel+1, func(i int) batch.Session {
		return n.partialAt(bucketKey{cluster: m.Cluster, level: i}).sess
	})
	if err != nil {
		panic(fmt.Sprintf("distbucket: %v", err))
	}
	if overflowed {
		n.cfg.met.overflow.Inc()
	}
	pb := n.buckets[bucketKey{cluster: m.Cluster, level: placed}]
	pb.txs = append(pb.txs, tx)
	n.cfg.met.inserted.Inc()
	n.cfg.met.level.Observe(int64(placed))
	ctx.WakeAt(bucket.NextActivation(ctx.Now(), placed))
}

// learn merges an availability observation (latest Free wins).
func (n *node) learn(os objSnapshot) {
	if cur, ok := n.known[os.Obj]; !ok || os.Avail.Free > cur.Free {
		n.setKnown(os.Obj, os.Avail)
	}
}

// setKnown records o's latest availability. known is the probe sessions'
// availability map: a missing entry is added directly, and one that
// differs is overwritten through Problem.SetAvail, which the sessions read.
func (n *node) setKnown(o core.ObjID, a batch.Avail) {
	if cur, ok := n.known[o]; !ok {
		n.known[o] = a
	} else if cur != a {
		n.probeProb.SetAvail(o, a)
	}
}

// partialAt returns the partial bucket at key, making it with its batch
// session at the key's first probe.
func (n *node) partialAt(key bucketKey) *partial {
	pb, ok := n.buckets[key]
	if !ok {
		pb = &partial{sess: batch.NewSession(n.cfg.batch, &n.probeProb, n.cfg.obs)}
		n.buckets[key] = pb
	}
	return pb
}

// onWake queues every due, non-empty level and starts a session if idle.
// Lower levels first (Section IV-B: lower buckets scheduled before higher
// ones at coinciding activations).
func (n *node) onWake(ctx *distnet.Ctx) {
	if n.cfg.faulty {
		n.retryDue(ctx)
	}
	now := ctx.Now()
	for key, pb := range n.buckets {
		if len(pb.txs) == 0 || !bucket.Due(now, key.level) {
			continue
		}
		if !containsKey(n.due, key) {
			n.due = append(n.due, key)
		}
	}
	n.maybeStartSession(ctx)
}

func containsKey(xs []bucketKey, v bucketKey) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func (n *node) maybeStartSession(ctx *distnet.Ctx) {
	if n.sess != nil || len(n.due) == 0 {
		return
	}
	sort.Slice(n.due, func(i, j int) bool { return bucketKeyLess(n.due[i], n.due[j]) })
	key := n.due[0]
	n.due = n.due[1:]
	pb := n.buckets[key]
	if len(pb.txs) == 0 {
		n.maybeStartSession(ctx)
		return
	}
	// The bucket drains into this protocol session; its probe session
	// drops the same transactions so later reports against the (now
	// empty) bucket probe the empty set.
	txs := pb.txs
	pb.txs = nil
	pb.sess.Reset()
	n.cfg.met.activations.Inc()
	n.sessSeq++
	s := &session{
		id:      int64(n.id)<<32 | n.sessSeq,
		txs:     txs,
		granted: make(map[core.ObjID]batch.Avail),
	}
	objSet := make(map[core.ObjID]bool)
	for _, tx := range txs {
		for _, o := range tx.Objects {
			objSet[o] = true
		}
	}
	for o := range objSet {
		s.objs = append(s.objs, o)
	}
	sort.Slice(s.objs, func(i, j int) bool { return s.objs[i] < s.objs[j] })
	n.sess = s
	// Ordered acquisition, one object at a time: deadlock-free.
	n.sendReserve(ctx, s.objs[0], s.id)
}

// sendReserve issues one reservation and, on faulty networks, arms its
// retry timer.
func (n *node) sendReserve(ctx *distnet.Ctx, o core.ObjID, session int64) {
	ctx.Send(n.cfg.home(o), reserveMsg{Obj: o, Session: session})
	if n.cfg.faulty {
		n.track(ctx, &pending{kind: pendReserve, obj: o, session: session, dst: n.cfg.home(o)})
	}
}

// onReserve serializes leaders at the object's home. Under faults it is
// idempotent: a retransmission from the current holder re-sends the original
// grant, one from a queued session heartbeats instead of double-queueing,
// and one from an already-released session is ignored.
func (n *node) onReserve(ctx *distnet.Ctx, from graph.NodeID, m reserveMsg) {
	n.cfg.met.reserves.Inc()
	if n.cfg.faulty && n.finishedSess[objSession{obj: m.Obj, sess: m.Session}] {
		return // stale retry: this session already released the object
	}
	r := n.reserved[m.Obj]
	if r == nil {
		r = &reservation{}
		n.reserved[m.Obj] = r
	}
	if n.cfg.faulty && r.holderSession == m.Session {
		// The grant was lost in flight: replay it verbatim.
		ctx.Send(from, grantMsg{Obj: m.Obj, Session: m.Session, Avail: r.holderAvail})
		return
	}
	if r.holderSession == 0 {
		r.holderSession = m.Session
		r.holderNode = from
		r.holderAvail = n.avail[m.Obj]
		ctx.Send(from, grantMsg{Obj: m.Obj, Session: m.Session, Avail: r.holderAvail})
		return
	}
	if n.cfg.faulty {
		for _, q := range r.queue {
			if q.session == m.Session {
				ctx.Send(from, reserveAckMsg{Obj: m.Obj, Session: m.Session})
				return
			}
		}
	}
	r.queue = append(r.queue, reserveReq{session: m.Session, node: from})
	if n.cfg.faulty {
		ctx.Send(from, reserveAckMsg{Obj: m.Obj, Session: m.Session})
	}
}

// onGrant advances the session's acquisition; when complete, schedule.
func (n *node) onGrant(ctx *distnet.Ctx, m grantMsg) {
	n.cfg.met.grants.Inc()
	s := n.sess
	if s == nil || s.id != m.Session {
		if n.cfg.faulty {
			// A stale grant for an abandoned session: the abandonment already
			// sent the home a restore-release, so the reservation is not
			// leaked — drop the grant.
			return
		}
		// A grant for a session we no longer run would leak the home's
		// reservation: that is a protocol bug, not a tolerable race.
		panic(fmt.Sprintf("distbucket: node %d: grant for unknown session %d", n.id, m.Session))
	}
	if _, ok := s.granted[m.Obj]; ok {
		return // duplicated grant
	}
	s.granted[m.Obj] = m.Avail
	s.next++
	if s.next < len(s.objs) {
		n.sendReserve(ctx, s.objs[s.next], s.id)
		return
	}
	n.finishSession(ctx)
}

// finishSession runs A on fresh availability, announces execution times,
// and releases the homes with updated availability.
func (n *node) finishSession(ctx *distnet.Ctx) {
	s := n.sess
	now := ctx.Now()
	// Execution times must not precede the moment the transaction's node
	// learns them.
	var notify graph.Weight
	for _, tx := range s.txs {
		if d := ctx.Dist(n.id, tx.Node); d > notify {
			notify = d
		}
	}
	// The grants are the problem's availability: onGrant finishes the
	// session only once every object of the bucket is granted.
	p := &batch.Problem{G: n.cfg.g, Now: now + core.Time(notify), Txns: s.txs, Avail: s.granted, Slow: n.cfg.slow}
	asgn, err := n.cfg.batch.Schedule(p)
	if err != nil {
		panic(fmt.Sprintf("distbucket: batch schedule: %v", err))
	}
	for _, tx := range s.txs {
		// Algorithm 3 line 7: when the bucket activates, the *objects* are
		// informed of the schedule — object itineraries take effect at the
		// leader's announce time. Recording the decision here (rather than
		// at decideMsg delivery) keeps itinerary updates in the same order
		// the home reservations serialized the sessions; applying them at
		// delivery time can send an object toward a later user before an
		// earlier user's announcement lands, a detour the availability
		// floors do not cover. The decideMsg below still notifies the
		// transaction's node (its execution time already budgets that
		// trip via the notify slack).
		n.decisions = append(n.decisions, decision{tx: tx.ID, exec: asgn[tx.ID]})
		ctx.Send(tx.Node, decideMsg{Tx: tx.ID, Exec: asgn[tx.ID]})
	}
	// New availability per object: its last user in this schedule, the
	// later one in bucket order at equal times. The grants are not read
	// again, so they take the new values.
	last := s.granted
	for _, tx := range s.txs {
		for _, o := range tx.Objects {
			if e := asgn[tx.ID]; e >= last[o].Free {
				last[o] = batch.Avail{Node: tx.Node, Free: e}
			}
		}
	}
	for _, o := range s.objs {
		n.setKnown(o, last[o])
		n.sendRelease(ctx, releaseMsg{Obj: o, Session: s.id, NewAvail: last[o]})
	}
	n.sess = nil
	// Re-arm timers for anything still waiting, then start the next due
	// session, if any.
	for key, pb := range n.buckets {
		if len(pb.txs) > 0 {
			ctx.WakeAt(bucket.NextActivation(now+1, key.level))
		}
	}
	n.maybeStartSession(ctx)
}

// sendRelease issues one home release and, on faulty networks, buffers it
// for retransmission until the home acknowledges.
func (n *node) sendRelease(ctx *distnet.Ctx, m releaseMsg) {
	ctx.Send(n.cfg.home(m.Obj), m)
	if n.cfg.faulty {
		key := objSession{obj: m.Obj, sess: m.Session}
		n.relBuf[key] = m
		n.track(ctx, &pending{kind: pendRelease, obj: m.Obj, session: m.Session, dst: n.cfg.home(m.Obj)})
	}
}

// onRelease updates the home's availability and grants the next waiting
// leader, if any. Under faults it additionally handles restore-releases
// from abandoned sessions (which may still sit in the queue, or hold the
// object via a grant the leader never saw) and re-acks duplicates.
func (n *node) onRelease(ctx *distnet.Ctx, from graph.NodeID, m releaseMsg) {
	n.cfg.met.releases.Inc()
	key := objSession{obj: m.Obj, sess: m.Session}
	if n.cfg.faulty {
		if n.finishedSess[key] {
			ctx.Send(from, releaseAckMsg{Obj: m.Obj, Session: m.Session})
			return
		}
	}
	r := n.reserved[m.Obj]
	if r == nil || r.holderSession != m.Session {
		if !n.cfg.faulty {
			return
		}
		// An abandoned session releasing an object it never held: drop it
		// from the wait queue if it is there, and remember the session is
		// over so late reserve retries do not re-enter it.
		if r != nil {
			for i, q := range r.queue {
				if q.session == m.Session {
					r.queue = append(r.queue[:i], r.queue[i+1:]...)
					break
				}
			}
		}
		n.finishedSess[key] = true
		ctx.Send(from, releaseAckMsg{Obj: m.Obj, Session: m.Session})
		return
	}
	if !m.Restore {
		n.avail[m.Obj] = m.NewAvail
	}
	if n.cfg.faulty {
		n.finishedSess[key] = true
		ctx.Send(from, releaseAckMsg{Obj: m.Obj, Session: m.Session})
	}
	avail := m.NewAvail
	if m.Restore {
		avail = n.avail[m.Obj]
	}
	if len(r.queue) == 0 {
		delete(n.reserved, m.Obj)
		return
	}
	next := r.queue[0]
	r.queue = r.queue[1:]
	r.holderSession = next.session
	r.holderNode = next.node
	r.holderAvail = avail
	ctx.Send(next.node, grantMsg{Obj: m.Obj, Session: next.session, Avail: avail})
}
