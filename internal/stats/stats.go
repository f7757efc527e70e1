// Package stats provides the small summary-statistics and table-formatting
// utilities used by the experiment harness.
package stats

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Sample is the light-weight spread aggregate used by the sweep runner:
// the mean of a (typically small) trial sample together with its
// population standard deviation and range. The zero value describes an
// empty sample.
type Sample struct {
	N                   int
	Mean, Std, Min, Max float64
}

// NewSample aggregates xs into a Sample without modifying it.
func NewSample(xs []float64) Sample {
	if len(xs) == 0 {
		return Sample{}
	}
	s := Sample{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	var sq float64
	for _, x := range xs {
		d := x - s.Mean
		sq += d * d
	}
	if v := sq / float64(s.N); v > 0 {
		s.Std = math.Sqrt(v)
	}
	return s
}

// Mean returns the arithmetic mean of the sample (0 for an empty one).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Table accumulates rows and renders them as an aligned text table (the
// format every experiment prints) or as CSV.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped, missing
// cells are blank.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the aligned text form to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// RenderCSV writes the table as CSV (headers first). Cells containing
// commas or quotes are quoted.
func (t *Table) RenderCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
