package core

import (
	"testing"

	"dtm/internal/graph"
)

func TestAddTransactionValidation(t *testing.T) {
	in := lineInstance(t, 6,
		[]*Object{{ID: 0, Origin: 0}},
		[]*Transaction{{ID: 0, Node: 0, Objects: []ObjID{0}}})
	s, err := NewSim(in, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		tx   *Transaction
	}{
		{"nil", nil},
		{"wrong id", &Transaction{ID: 5, Node: 0, Arrival: 10, Objects: []ObjID{0}}},
		{"bad node", &Transaction{ID: 1, Node: 9, Arrival: 10, Objects: []ObjID{0}}},
		{"past arrival", &Transaction{ID: 1, Node: 0, Arrival: 3, Objects: []ObjID{0}}},
		{"no objects", &Transaction{ID: 1, Node: 0, Arrival: 10}},
		{"unknown object", &Transaction{ID: 1, Node: 0, Arrival: 10, Objects: []ObjID{4}}},
		{"unsorted objects", &Transaction{ID: 1, Node: 0, Arrival: 10, Objects: []ObjID{0, 0}}},
	}
	for _, c := range cases {
		if err := s.AddTransaction(c.tx); err == nil {
			t.Errorf("%s: want error", c.name)
		}
	}
	// A valid addition becomes schedulable and executable.
	ok := &Transaction{ID: 1, Node: 3, Arrival: 10, Objects: []ObjID{0}}
	if err := s.AddTransaction(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(0, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Decide(1, 13); err != nil { // object at node 0, dist 3
		t.Fatal(err)
	}
	if err := s.RunToCompletion(); err != nil {
		t.Fatal(err)
	}
	if !s.AllExecuted() {
		t.Error("added transaction never executed")
	}
	_ = graph.NodeID(0)
}
