package batch

// Sessionized batch API. Algorithm 2 queries the batch scheduler once per
// level with a candidate set that differs from the previous probe of the
// same level by exactly one transaction. The one-shot Scheduler interface
// forces the bucket engines to rebuild the whole problem for every probe;
// a Session instead keeps per-level state alive across probes and patches
// it under single-transaction insertion (Push) and retraction (Pop).
//
// Sessions read the live *Problem they were created with: the caller owns
// p.Now and p.Avail and keeps them current between probes (the bucket
// engines keep one availability map for the whole run, add an entry the
// first time a transaction uses its object, and overwrite an entry only
// when the object's last user moves). Membership-dependent state — conflict
// components, conflict adjacency, per-component canonical MSTs — persists
// inside the session; anything that depends on Now is recomputed per
// Cost/Assign call or kept in a form that holds at every Now (the tour
// sessions' per-component summaries). State derived from Avail — the tour
// sessions' node sets include availability nodes, and their summaries the
// latest free time — is dropped once an entry it read is replaced: the
// caller overwrites entries only through Problem.SetAvail, which moves a
// generation the sessions compare with. Adding entries to the map needs
// no call.
//
// Every session is pinned byte-identical to the one-shot path: Cost()
// equals Cost(s, p) and Assign() equals s.Schedule(p) with p.Txns set to
// the pushed transactions in push order. The root differential test and
// FuzzBatchIncremental enforce this.

import (
	"dtm/internal/core"
	"dtm/internal/obs"
)

// Session is an incremental batch scheduling session over one candidate
// set. Push and Pop edit the set (Pop retracts the most recent Push);
// Cost and Assign evaluate the scheduler on the current set against the
// live problem's Now/Avail. Sessions are not safe for concurrent use.
type Session interface {
	// Push appends tx to the candidate set.
	Push(tx *core.Transaction)
	// Pop retracts the most recently pushed transaction (no-op when empty).
	Pop()
	// Len returns the current candidate-set size.
	Len() int
	// Cost returns the scheduler's makespan F_A for the current set,
	// relative to the problem's current Now.
	Cost() (core.Time, error)
	// Assign returns the scheduler's assignment for the current set. The
	// returned map is owned by the caller (a fresh map per call).
	Assign() (Assignment, error)
	// Reset empties the candidate set, releasing all retained
	// transaction pointers while keeping allocated buffers for reuse.
	Reset()
}

// SessionScheduler is a batch scheduler with a native incremental session
// implementation. Schedulers that do not implement it are adapted
// generically (each Cost/Assign re-runs the one-shot Schedule).
type SessionScheduler interface {
	Scheduler
	NewSession(p *Problem, m *obs.Metrics) Session
}

// sessionMetrics holds the session instrument handles, resolved from the
// run's registry.
type sessionMetrics struct {
	sessions *obs.Counter // batch.sessions: sessions begun
	pushes   *obs.Counter // batch.session_pushes: Push calls
	costs    *obs.Counter // batch.session_costs: Cost/Assign evaluations
	rebuilds *obs.Counter // batch.session_rebuilds: adapter one-shot re-runs
}

func newSessionMetrics(m *obs.Metrics) sessionMetrics {
	return sessionMetrics{
		sessions: m.Counter(obs.NameBatchSessions),
		pushes:   m.Counter(obs.NameBatchSessionPushes),
		costs:    m.Counter(obs.NameBatchSessionCosts),
		rebuilds: m.Counter(obs.NameBatchSessionRebuilds),
	}
}

// NewSession begins an incremental session of s over the live problem p
// (p.Txns is ignored; the session's pushed set takes its place), counting
// into the batch.* instruments of m. Schedulers implementing
// SessionScheduler get their native incremental engine; any other
// scheduler — List, Randomized, the WithSuffixProperty combinator — is
// wrapped by a generic adapter that re-runs the one-shot Schedule per
// evaluation, preserving exact behavior.
func NewSession(s Scheduler, p *Problem, m *obs.Metrics) Session {
	if ss, ok := s.(SessionScheduler); ok {
		return ss.NewSession(p, m)
	}
	met := newSessionMetrics(m)
	met.sessions.Inc()
	return &oneShotSession{inner: s, p: p, met: met}
}

// oneShotSession adapts a legacy one-shot scheduler to the Session
// interface: each evaluation runs inner.Schedule once, on a shallow copy
// of the live problem with Txns set to the pushed set.
type oneShotSession struct {
	inner Scheduler
	p     *Problem
	met   sessionMetrics
	txns  []*core.Transaction
	prob  Problem // reusable header for the shallow copy
}

func (s *oneShotSession) Push(tx *core.Transaction) {
	s.txns = append(s.txns, tx)
	s.met.pushes.Inc()
}

func (s *oneShotSession) Pop() {
	if n := len(s.txns); n > 0 {
		s.txns[n-1] = nil
		s.txns = s.txns[:n-1]
	}
}

func (s *oneShotSession) Len() int { return len(s.txns) }

func (s *oneShotSession) schedule() (Assignment, error) {
	s.met.costs.Inc()
	s.met.rebuilds.Inc()
	s.prob = *s.p
	s.prob.Txns = s.txns
	return s.inner.Schedule(&s.prob)
}

func (s *oneShotSession) Cost() (core.Time, error) {
	a, err := s.schedule()
	if err != nil {
		return 0, err
	}
	return a.Makespan(s.p.Now), nil
}

func (s *oneShotSession) Assign() (Assignment, error) { return s.schedule() }

func (s *oneShotSession) Reset() {
	for i := range s.txns {
		s.txns[i] = nil
	}
	s.txns = s.txns[:0]
	s.prob.Txns = nil
}

// AvailFunc resolves the availability of one object on demand. The
// central bucket engine backs it with the simulation (the last decided
// user, else the object's origin or resting place).
type AvailFunc func(core.ObjID) Avail

// ExtendAvail lazily adds availability entries for every object used by
// txns that dst does not yet hold. Entries already present are kept: the
// callers either fill a fresh map against frozen state, or keep a live map
// current by overwriting an entry (Problem.SetAvail) where its object's
// last user moves.
func ExtendAvail(dst map[core.ObjID]Avail, txns []*core.Transaction, resolve AvailFunc) {
	for _, tx := range txns {
		ExtendAvailTx(dst, tx, resolve)
	}
}

// ExtendAvailTx is ExtendAvail for a single transaction.
func ExtendAvailTx(dst map[core.ObjID]Avail, tx *core.Transaction, resolve AvailFunc) {
	for _, o := range tx.Objects {
		if _, ok := dst[o]; !ok {
			dst[o] = resolve(o)
		}
	}
}
