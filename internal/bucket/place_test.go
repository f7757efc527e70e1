package bucket

import (
	"fmt"
	"slices"
	"testing"

	"dtm/internal/batch"
	"dtm/internal/core"
	"dtm/internal/graph"
)

// fakeSession is one level's batch session that logs each Push, Cost and
// Pop with its level and prices every probe at cost.
type fakeSession struct {
	level int
	cost  core.Time
	log   *[]string
	n     int
}

func (s *fakeSession) Push(*core.Transaction) { s.n++; s.record("push") }
func (s *fakeSession) Pop()                   { s.n--; s.record("pop") }
func (s *fakeSession) Len() int               { return s.n }
func (s *fakeSession) Reset()                 { s.n = 0 }
func (s *fakeSession) Assign() (batch.Assignment, error) {
	return nil, fmt.Errorf("fakeSession: Assign is not a probe")
}

func (s *fakeSession) Cost() (core.Time, error) {
	s.record("cost")
	return s.cost, nil
}

func (s *fakeSession) record(op string) {
	*s.log = append(*s.log, fmt.Sprintf("%s %d", op, s.level))
}

// TestPlaceStartsAtFloorLevel checks that Place probes no level below the
// transaction's floor: a floor Now+5 starts at level 3 (2^3 >= 5 > 2^2), a
// floor past the top level's 2^i goes straight into the top level, and a
// transaction without an availability entry pushes nothing.
func TestPlaceStartsAtFloorLevel(t *testing.T) {
	g, err := graph.Line(8)
	if err != nil {
		t.Fatal(err)
	}
	tx := &core.Transaction{ID: 1, Node: 0, Objects: []core.ObjID{0}}
	const now, levels = 10, 4
	place := func(avail map[core.ObjID]batch.Avail, cost core.Time) (int, bool, []string, error) {
		var log []string
		sessions := make([]batch.Session, levels)
		for i := range sessions {
			sessions[i] = &fakeSession{level: i, cost: cost, log: &log}
		}
		p := &batch.Problem{G: g, Now: now, Avail: avail}
		level, overflowed, err := Place(p, tx, levels, func(i int) batch.Session { return sessions[i] })
		return level, overflowed, log, err
	}

	// Object 0 is free now at node 5: it reaches tx at Now+5.
	level, overflowed, log, err := place(map[core.ObjID]batch.Avail{0: {Node: 5, Free: now}}, 5)
	if err != nil || level != 3 || overflowed || !slices.Equal(log, []string{"push 3", "cost 3"}) {
		t.Errorf("floor Now+5: level %d, overflowed %t, err %v, probes %q; want level 3 from one probe at level 3",
			level, overflowed, err, log)
	}

	// Object 0 is free at Now+100, past 2^3: every level misses.
	level, overflowed, log, err = place(map[core.ObjID]batch.Avail{0: {Node: 0, Free: now + 100}}, 100)
	if err != nil || level != levels-1 || !overflowed || !slices.Equal(log, []string{"push 3"}) {
		t.Errorf("floor past the top level: level %d, overflowed %t, err %v, probes %q; want one push into level 3",
			level, overflowed, err, log)
	}

	// Object 0 has no entry.
	if _, _, log, err = place(map[core.ObjID]batch.Avail{}, 0); err == nil || len(log) != 0 {
		t.Errorf("missing availability: err %v, probes %q; want an error and no probe", err, log)
	}

	for d, want := range []int{0, 0, 1, 2, 2, 3, 3, 3, 3, 4} {
		if got := floorLevel(core.Time(d)); got != want {
			t.Errorf("floorLevel(%d) = %d, want %d", d, got, want)
		}
	}
}
