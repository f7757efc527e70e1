package main

import "testing"

func TestBuildAllTopologies(t *testing.T) {
	for _, topo := range []string{"clique", "line", "ring", "grid", "hypercube", "butterfly", "cluster", "star", "tree", "random"} {
		g, err := build(topo, 8, 3, 3, 3, 3, 3, 3, 2, 1)
		if err != nil {
			t.Errorf("%s: %v", topo, err)
			continue
		}
		if !g.Connected() {
			t.Errorf("%s: disconnected", topo)
		}
		for seed := int64(1); seed <= 5; seed++ {
			if _, err := coverTable(g, seed); err != nil {
				t.Errorf("%s: cover seed %d: %v", topo, seed, err)
			}
		}
	}
	if _, err := build("nope", 8, 3, 3, 3, 3, 3, 3, 2, 1); err == nil {
		t.Error("unknown topology: want error")
	}
}
