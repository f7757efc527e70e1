package analysis_test

import (
	"testing"

	"dtm/internal/analysis"
	"dtm/internal/analysis/analysistest"
)

func TestDetclock(t *testing.T) {
	analysistest.Run(t, analysis.Detclock, "testdata/src/detclock")
}

func TestDetrange(t *testing.T) {
	analysistest.Run(t, analysis.Detrange, "testdata/src/detrange")
}

func TestGosites(t *testing.T) {
	analysistest.Run(t, analysis.Gosites, "testdata/src/gosites")
}

// TestSuiteShape pins the driver-facing contract: every suite analyzer is
// named, documented, and scoped.
func TestSuiteShape(t *testing.T) {
	if len(analysis.Suite) != 3 {
		t.Fatalf("Suite has %d analyzers, want 3", len(analysis.Suite))
	}
	seen := map[string]bool{}
	for _, a := range analysis.Suite {
		if a.Name == "" || a.Doc == "" || a.Run == nil || a.AppliesTo == nil {
			t.Errorf("analyzer %+v missing name/doc/run/scope", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, a := range analysis.Suite {
		if !a.AppliesTo("dtm/internal/greedy") {
			t.Errorf("%s should apply to dtm/internal/greedy", a.Name)
		}
	}
	if analysis.Detclock.AppliesTo("dtm/internal/runner") {
		t.Error("detclock must exempt the wall-clock-timing runner package")
	}
}
