package core

import (
	"testing"

	"dtm/internal/graph"
)

// TestAddTransactionValidation sends each malformed transaction through
// Sim.AddTransaction and, where it is malformed in itself rather than
// against the sim's clock or ID count, through Instance.Validate as the
// second transaction of an instance: both must refuse it.
func TestAddTransactionValidation(t *testing.T) {
	objs := []*Object{{ID: 0, Origin: 0}, {ID: 1, Origin: 5}}
	first := &Transaction{ID: 0, Node: 0, Objects: []ObjID{0}}
	in := lineInstance(t, 6, objs, []*Transaction{first})
	s, err := NewSim(in, SimOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AdvanceTo(10); err != nil {
		t.Fatal(err)
	}
	malformed := []struct {
		name string
		tx   *Transaction
	}{
		{"bad node", &Transaction{ID: 1, Node: 9, Arrival: 10, Objects: []ObjID{0}}},
		{"negative node", &Transaction{ID: 1, Node: -1, Arrival: 10, Objects: []ObjID{0}}},
		{"no objects", &Transaction{ID: 1, Node: 0, Arrival: 10}},
		{"unknown object", &Transaction{ID: 1, Node: 0, Arrival: 10, Objects: []ObjID{4}}},
		{"negative object", &Transaction{ID: 1, Node: 0, Arrival: 10, Objects: []ObjID{-1}}},
		{"unsorted objects", &Transaction{ID: 1, Node: 0, Arrival: 10, Objects: []ObjID{1, 0}}},
		{"duplicate objects", &Transaction{ID: 1, Node: 0, Arrival: 10, Objects: []ObjID{0, 0}}},
	}
	for _, c := range malformed {
		bad := lineInstance(t, 6, objs, []*Transaction{first, c.tx})
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate: want error", c.name)
		}
		if err := s.AddTransaction(c.tx); err == nil {
			t.Errorf("%s: AddTransaction: want error", c.name)
		}
	}
	for _, c := range []struct {
		name string
		tx   *Transaction
	}{
		{"nil", nil},
		{"wrong id", &Transaction{ID: 5, Node: 0, Arrival: 10, Objects: []ObjID{0}}},
		{"past arrival", &Transaction{ID: 1, Node: 0, Arrival: 3, Objects: []ObjID{0}}},
	} {
		if err := s.AddTransaction(c.tx); err == nil {
			t.Errorf("%s: AddTransaction: want error", c.name)
		}
	}
	// A valid addition becomes schedulable and executable.
	ok := &Transaction{ID: 1, Node: 3, Arrival: 10, Objects: []ObjID{0}}
	if err := lineInstance(t, 6, objs, []*Transaction{first, ok}).Validate(); err != nil {
		t.Fatal(err)
	}
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
