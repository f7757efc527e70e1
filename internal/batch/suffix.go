package batch

import (
	"fmt"
	"sort"

	"dtm/internal/core"
)

// WithSuffixProperty wraps a batch scheduler with the paper's second basic
// modification (Section IV-A): for every suffix of the produced schedule —
// in execution order — the suffix's transactions must execute within the
// time the algorithm itself would need for them alone, starting from the
// object positions the prefix leaves behind. The wrapper enforces this by
// repeatedly re-scheduling any violating suffix (longest first, as the
// paper prescribes) and keeping the improvement.
//
// The wrapper preserves feasibility: a re-scheduled suffix honors
// availability floors derived from the prefix's final object positions, so
// prefix-suffix object handoffs stay legal; transactions in the suffix
// never share objects "backwards" with a later prefix user because
// availability is taken from each object's last prefix user.
func WithSuffixProperty(inner Scheduler) Scheduler {
	return &suffixScheduler{inner: inner}
}

type suffixScheduler struct {
	inner Scheduler
}

// Name implements Scheduler.
func (s *suffixScheduler) Name() string { return s.inner.Name() + "+suffix" }

// Schedule implements Scheduler.
func (s *suffixScheduler) Schedule(p *Problem) (Assignment, error) {
	asgn, err := s.inner.Schedule(p)
	if err != nil {
		return nil, err
	}
	if len(p.Txns) < 2 {
		return asgn, nil
	}
	// Execution order (exec, then ID for determinism).
	order := append([]*core.Transaction(nil), p.Txns...)
	sortByExec := func() {
		sort.SliceStable(order, func(i, j int) bool {
			if asgn[order[i].ID] != asgn[order[j].ID] {
				return asgn[order[i].ID] < asgn[order[j].ID]
			}
			return order[i].ID < order[j].ID
		})
	}
	sortByExec()
	// Longest violating suffix first; each fix can only lower suffix
	// execution times, so one left-to-right pass suffices per round, with
	// a bounded number of improvement rounds as a safety valve.
	for round := 0; round < len(order); round++ {
		improved := false
		for start := 1; start < len(order); start++ {
			suffix := order[start:]
			sp := s.suffixProblem(p, asgn, order[:start], suffix)
			alt, err := s.inner.Schedule(sp)
			if err != nil {
				return nil, fmt.Errorf("batch: suffix re-schedule: %w", err)
			}
			if maxExec(alt, suffix) < maxExec(asgn, suffix) {
				for _, tx := range suffix {
					asgn[tx.ID] = alt[tx.ID]
				}
				improved = true
				sortByExec()
			}
		}
		if !improved {
			break
		}
	}
	return asgn, nil
}

// suffixProblem builds the batch problem for a suffix: the availability of
// each object the suffix uses is where it ends up after its last prefix
// user (or its original availability if the prefix never touches it). It
// holds entries for the suffix's objects only, the ones a schedule of the
// suffix reads.
func (s *suffixScheduler) suffixProblem(p *Problem, asgn Assignment, prefix, suffix []*core.Transaction) *Problem {
	avail := make(map[core.ObjID]Avail, len(suffix))
	for _, tx := range suffix {
		for _, o := range tx.Objects {
			if a, ok := p.Avail[o]; ok {
				avail[o] = a
			}
		}
	}
	for _, tx := range prefix {
		e := asgn[tx.ID]
		for _, o := range tx.Objects {
			if a, ok := avail[o]; ok && e >= a.Free {
				avail[o] = Avail{Node: tx.Node, Free: e}
			}
		}
	}
	return &Problem{G: p.G, Now: p.Now, Txns: suffix, Avail: avail, Slow: p.Slow}
}

func maxExec(a Assignment, txns []*core.Transaction) core.Time {
	var m core.Time
	for _, tx := range txns {
		if a[tx.ID] > m {
			m = a[tx.ID]
		}
	}
	return m
}
