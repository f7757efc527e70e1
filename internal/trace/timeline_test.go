package trace

import (
	"fmt"
	"strings"
	"testing"
)

func TestTimeline(t *testing.T) {
	_, r := captureRun(t)
	tl, err := r.Timeline()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tl, "makespan") {
		t.Errorf("timeline missing header:\n%s", tl)
	}
	// Every object with users appears once, and visits are time-ordered.
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) < 2 {
		t.Fatalf("timeline too short:\n%s", tl)
	}
	for _, line := range lines[1:] {
		if !strings.HasPrefix(line, "obj ") {
			t.Errorf("unexpected line %q", line)
		}
		// Extract t= values and check monotone non-decreasing.
		var prev int64 = -1
		for _, f := range strings.Fields(line) {
			if !strings.HasPrefix(f, "t=") {
				continue
			}
			var v int64
			if _, err := sscan(f[2:], &v); err != nil {
				t.Fatalf("bad time field %q", f)
			}
			if v < prev {
				t.Errorf("visits out of order in %q", line)
			}
			prev = v
		}
	}
}

func sscan(s string, v *int64) (int, error) {
	return fmtSscan(s, v)
}

func fmtSscan(s string, v *int64) (int, error) { return fmt.Sscan(s, v) }
