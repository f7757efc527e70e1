package batch

import (
	"sort"

	"dtm/internal/core"
)

// List is list scheduling: transactions are taken in order of earliest
// feasibility and assigned the earliest execution time their objects can
// reach them, threading each object's availability through the assignment.
// It is valid on any graph and usually the strongest of the three batch
// heuristics in constants, which makes it the high-quality end of the b_A
// ablation (Theorem 4 says the online competitive ratio scales with the
// batch algorithm's approximation quality).
type List struct{}

// Name implements Scheduler.
func (List) Name() string { return "list-batch" }

// Schedule implements Scheduler.
func (List) Schedule(p *Problem) (Assignment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Thread availability: objects move to each assigned transaction.
	avail := ownAvail(p, p.Txns)
	remaining := append([]*core.Transaction(nil), p.Txns...)
	out := make(Assignment, len(p.Txns))
	slow := core.Time(p.slow())
	earliest := func(tx *core.Transaction) core.Time {
		e := p.Now
		if tx.Arrival > e {
			e = tx.Arrival
		}
		for _, o := range tx.Objects {
			a := avail[o]
			if t := a.Free + core.Time(p.G.Dist(a.Node, tx.Node))*slow; t > e {
				e = t
			}
		}
		return e
	}
	for len(remaining) > 0 {
		// Pick the transaction that can run soonest (ID tie-break).
		sort.SliceStable(remaining, func(i, j int) bool {
			ei, ej := earliest(remaining[i]), earliest(remaining[j])
			if ei != ej {
				return ei < ej
			}
			return remaining[i].ID < remaining[j].ID
		})
		tx := remaining[0]
		remaining = remaining[1:]
		e := earliest(tx)
		out[tx.ID] = e
		for _, o := range tx.Objects {
			avail[o] = Avail{Node: tx.Node, Free: e}
		}
	}
	return out, nil
}

// ownAvail copies the availability entries of the objects txns use, each
// free time raised to p.Now: the private map list scheduling threads its
// assignment through. It reads no other entry, so its cost does not grow
// with a caller's live map of every object seen so far.
func ownAvail(p *Problem, txns []*core.Transaction) map[core.ObjID]Avail {
	avail := make(map[core.ObjID]Avail, len(txns))
	for _, tx := range txns {
		for _, o := range tx.Objects {
			a := p.Avail[o]
			if a.Free < p.Now {
				a.Free = p.Now
			}
			avail[o] = a
		}
	}
	return avail
}
