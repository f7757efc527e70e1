package distbucket

// Recovery layer for unreliable networks (distnet.FaultPlan). Every
// request/response exchange of Algorithm 3 — discovery (req/info), report
// (report/ack), reservation (reserve/grant, with queue heartbeats), and
// release (release/ack) — is tracked as a pending entry with a deadline.
// Deadlines are served from the node's ordinary wake timer (wakes are never
// faulted: a crashed node models a process restart with durable state).
// Retries back off exponentially up to a cap; a request unanswered for
// maxAttempts consecutive tries is given up, which abandons the transaction
// (discovery, report) or the whole reservation session (reserve) — the
// protocol degrades by reporting the abandoned set instead of hanging.
//
// Liveness is checked by inspecting protocol state rather than by explicit
// completion callbacks: a pending entry whose answer already arrived (the
// discovery holds the object's reply, the report is acked, the session
// progressed past the object, the release buffer is empty) is dropped
// silently at its deadline. None of this code runs on fault-free networks.

import (
	"fmt"

	"dtm/internal/core"
	"dtm/internal/distnet"
	"dtm/internal/graph"
)

type pendKind int

const (
	pendDiscover pendKind = iota // reqMsg awaiting infoMsg
	pendReport                   // reportMsg awaiting reportAckMsg
	pendReserve                  // reserveMsg awaiting grantMsg (heartbeats reset backoff)
	pendRelease                  // releaseMsg awaiting releaseAckMsg
)

// totalAttemptFactor bounds a pending entry's lifetime retries even when
// heartbeats keep resetting its consecutive-attempt counter: a reservation
// queued behind a home the releaser can never reach must eventually give up
// too, or crashed-leader cascades would spin forever.
const totalAttemptFactor = 10

// pending is one in-flight request with a retry deadline.
type pending struct {
	kind     pendKind
	tx       core.TxID    // pendDiscover, pendReport
	obj      core.ObjID   // pendDiscover, pendReserve, pendRelease
	session  int64        // pendReserve, pendRelease
	dst      graph.NodeID // where the request went
	attempt  int          // consecutive unanswered attempts; heartbeats reset it
	total    int          // lifetime attempts; never reset
	deadline core.Time
}

// retrySlack is the base backoff step added to a request's worst-case round
// trip before the first retry; it doubles per consecutive unanswered
// attempt, up to backoffCap.
const (
	retrySlack core.Time = 2
	backoffCap core.Time = 64
)

// timeout returns how long to wait for an answer from dst after `attempt`
// consecutive failures: a worst-case round trip (distance both ways plus
// jitter both ways) plus capped exponential backoff.
func (n *node) timeout(dst graph.NodeID, attempt int) core.Time {
	rtt := 2 * (core.Time(n.cfg.g.Dist(n.id, dst)) + n.cfg.maxJitter)
	shift := uint(attempt)
	if shift > 16 {
		shift = 16
	}
	backoff := min(retrySlack<<shift, backoffCap)
	if to := rtt + backoff; to > 1 {
		return to
	}
	return 1
}

// track arms a pending entry's first deadline. Callers send the request
// themselves; track only schedules the follow-up.
func (n *node) track(ctx *distnet.Ctx, p *pending) {
	p.deadline = ctx.Now() + n.timeout(p.dst, p.attempt)
	n.pend = append(n.pend, p)
	ctx.WakeAt(p.deadline)
}

// live reports whether a pending entry still awaits its answer.
func (n *node) live(p *pending) bool {
	switch p.kind {
	case pendDiscover:
		d, ok := n.discov[p.tx]
		return ok && !d.have[p.obj]
	case pendReport:
		_, ok := n.sentReports[p.tx]
		return ok
	case pendReserve:
		s := n.sess
		if s == nil || s.id != p.session {
			return false
		}
		_, granted := s.granted[p.obj]
		return !granted
	case pendRelease:
		_, ok := n.relBuf[objSession{obj: p.obj, sess: p.session}]
		return ok
	}
	return false
}

// retryDue runs at every wake: answered entries are dropped, expired ones
// are retransmitted with backoff, and exhausted ones give up. Give-ups are
// processed after the keep-list is rebuilt because abandoning a session may
// start the next one, which appends fresh pending entries.
func (n *node) retryDue(ctx *distnet.Ctx) {
	now := ctx.Now()
	var keep, exhausted []*pending
	for _, p := range n.pend {
		if !n.live(p) {
			continue
		}
		if now < p.deadline {
			keep = append(keep, p)
			continue
		}
		n.cfg.met.timeouts.Inc()
		if p.attempt+1 >= n.cfg.maxAttempts || p.total+1 >= totalAttemptFactor*n.cfg.maxAttempts {
			exhausted = append(exhausted, p)
			continue
		}
		p.attempt++
		p.total++
		n.resend(ctx, p)
		n.cfg.met.retries.Inc()
		p.deadline = now + n.timeout(p.dst, p.attempt)
		ctx.WakeAt(p.deadline)
		keep = append(keep, p)
	}
	n.pend = keep
	for _, p := range exhausted {
		n.giveUp(ctx, p)
	}
}

func (n *node) resend(ctx *distnet.Ctx, p *pending) {
	switch p.kind {
	case pendDiscover:
		ctx.Send(p.dst, reqMsg{Obj: p.obj, Tx: p.tx, TxNode: n.id, Attempt: p.total})
	case pendReport:
		m := n.sentReports[p.tx]
		m.Attempt = p.total
		ctx.Send(p.dst, m)
	case pendReserve:
		ctx.Send(p.dst, reserveMsg{Obj: p.obj, Session: p.session, Attempt: p.total})
	case pendRelease:
		m := n.relBuf[objSession{obj: p.obj, sess: p.session}]
		m.Attempt = p.total
		ctx.Send(p.dst, m)
	}
}

// giveUp handles an exhausted pending entry: graceful degradation instead
// of hanging. Lost releases are simply dropped — the home stays reserved,
// and any session queued there will exhaust its own reservation in turn,
// so the cascade is bounded.
func (n *node) giveUp(ctx *distnet.Ctx, p *pending) {
	switch p.kind {
	case pendDiscover:
		if _, ok := n.discov[p.tx]; ok {
			delete(n.discov, p.tx)
			n.abandon(p.tx, fmt.Sprintf("discovery of object %d unanswered by home %d", p.obj, p.dst))
		}
	case pendReport:
		if _, ok := n.sentReports[p.tx]; ok {
			delete(n.sentReports, p.tx)
			n.abandon(p.tx, fmt.Sprintf("report unacknowledged by leader %d", p.dst))
		}
	case pendReserve:
		if s := n.sess; s != nil && s.id == p.session {
			n.abandonSession(ctx, fmt.Sprintf("reservation of object %d unanswered by home %d", p.obj, p.dst))
		}
	case pendRelease:
		delete(n.relBuf, objSession{obj: p.obj, sess: p.session})
	}
}

func (n *node) abandon(tx core.TxID, reason string) {
	n.abandoned = append(n.abandoned, AbandonedTx{Tx: tx, Reason: reason})
}

// abandonSession gives up the whole in-flight activation: every transaction
// of the bucket is reported abandoned, and every object of the session is
// released back to its home with Restore (availability untouched) — whether
// or not its grant ever arrived, since the home knows which sessions it
// granted and drops queue entries for the rest.
func (n *node) abandonSession(ctx *distnet.Ctx, reason string) {
	s := n.sess
	for _, tx := range s.txs {
		n.abandon(tx.ID, "session abandoned: "+reason)
	}
	for _, o := range s.objs {
		n.sendRelease(ctx, releaseMsg{Obj: o, Session: s.id, Restore: true})
	}
	n.sess = nil
	n.maybeStartSession(ctx)
}

// Ack handlers. The pending entries themselves die lazily via live().

func (n *node) onReportAck(m reportAckMsg) {
	delete(n.sentReports, m.Tx)
}

// onReserveAck is the queue heartbeat: the home has the reservation
// registered but the object is busy. Reset the backoff so a long legitimate
// wait is not mistaken for loss (the lifetime cap still bounds it).
func (n *node) onReserveAck(ctx *distnet.Ctx, m reserveAckMsg) {
	for _, p := range n.pend {
		if p.kind == pendReserve && p.session == m.Session && p.obj == m.Obj {
			p.attempt = 0
			p.deadline = ctx.Now() + n.timeout(p.dst, 0)
			ctx.WakeAt(p.deadline)
			return
		}
	}
}

func (n *node) onReleaseAck(m releaseAckMsg) {
	delete(n.relBuf, objSession{obj: m.Obj, sess: m.Session})
}
