package stats

import (
	"math"
	"strings"
	"testing"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta", "2.50")
	tb.AddRow("gamma") // missing cell
	var b strings.Builder
	if err := tb.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "name", "alpha", "2.50", "gamma"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// title + header + separator + 3 rows
	if len(lines) != 6 {
		t.Errorf("line count = %d, want 6:\n%s", len(lines), out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `q"z`)
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n\"x,y\",\"q\"\"z\"\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v, want 0", got)
	}
	if got := Mean([]float64{1, 2, 3, 6}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
}

func TestNewSample(t *testing.T) {
	s := NewSample([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 || s.Min != 2 || s.Max != 9 {
		t.Errorf("basic fields wrong: %+v", s)
	}
	if s.Std != 2 { // textbook population stddev of this sample
		t.Errorf("Std = %v, want 2", s.Std)
	}
	if z := NewSample(nil); z != (Sample{}) {
		t.Errorf("empty sample not zero: %+v", z)
	}
	one := NewSample([]float64{3.5})
	if one.N != 1 || one.Mean != 3.5 || one.Std != 0 || one.Min != 3.5 || one.Max != 3.5 {
		t.Errorf("single-element sample wrong: %+v", one)
	}
	// Constant samples must report exactly zero spread (no float noise).
	if c := NewSample([]float64{1e9, 1e9, 1e9}); c.Std != 0 {
		t.Errorf("constant sample Std = %v", c.Std)
	}
	if math.IsNaN(NewSample([]float64{}).Mean) {
		t.Error("empty sample mean is NaN")
	}
}
