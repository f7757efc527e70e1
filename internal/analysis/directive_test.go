package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

func parseTestFile(t *testing.T, src string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

// lineOf returns the position of the first character on the 1-based line.
func lineOf(fset *token.FileSet, f *ast.File, line int) token.Pos {
	return fset.File(f.Pos()).LineStart(line)
}

func TestFilterSameAndNextLine(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore detclock justified above
	_ = 1
	_ = 2 //lint:ignore detclock justified trailing
	_ = 3
	_ = 4
}
`
	fset, f := parseTestFile(t, src)
	diags := []Diagnostic{
		{Pos: lineOf(fset, f, 5), Analyzer: "detclock", Message: "covered by preceding line"},
		{Pos: lineOf(fset, f, 6), Analyzer: "detclock", Message: "covered trailing"},
		{Pos: lineOf(fset, f, 7), Analyzer: "detclock", Message: "covered by trailing directive's next-line span"},
		{Pos: lineOf(fset, f, 8), Analyzer: "detclock", Message: "uncovered"},
		{Pos: lineOf(fset, f, 5), Analyzer: "detrange", Message: "wrong analyzer, stays"},
	}
	got := Filter(fset, []*ast.File{f}, diags)
	var msgs []string
	for _, d := range got {
		msgs = append(msgs, d.Message)
	}
	want := []string{"wrong analyzer, stays", "uncovered"}
	if len(got) != len(want) {
		t.Fatalf("Filter kept %v, want %v", msgs, want)
	}
	for i := range want {
		if msgs[i] != want[i] {
			t.Errorf("kept[%d] = %q, want %q", i, msgs[i], want[i])
		}
	}
}

func TestFilterMalformedDirectiveReported(t *testing.T) {
	src := `package p

//lint:ignore
func f() {}

//lint:ignore detclock
func g() {}
`
	fset, f := parseTestFile(t, src)
	got := Filter(fset, []*ast.File{f}, nil)
	if len(got) != 2 {
		t.Fatalf("got %d diagnostics, want 2 malformed-directive reports: %v", len(got), got)
	}
	for _, d := range got {
		if d.Analyzer != "dtmlint" || !strings.Contains(d.Message, "analyzer name and a reason") {
			t.Errorf("unexpected diagnostic %+v", d)
		}
	}
}

func TestFilterCommaSeparatedAnalyzers(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore detclock,detrange spans both analyzers
	_ = 1
}
`
	fset, f := parseTestFile(t, src)
	diags := []Diagnostic{
		{Pos: lineOf(fset, f, 5), Analyzer: "detclock", Message: "a"},
		{Pos: lineOf(fset, f, 5), Analyzer: "detrange", Message: "b"},
		{Pos: lineOf(fset, f, 5), Analyzer: "obsnames", Message: "c"},
	}
	got := Filter(fset, []*ast.File{f}, diags)
	if len(got) != 1 || got[0].Analyzer != "obsnames" {
		t.Fatalf("Filter kept %v, want only the obsnames finding", got)
	}
}

func TestFilterIgnoresLookalikePrefix(t *testing.T) {
	src := `package p

func f() {
	//lint:ignoreharder detclock not a real directive
	_ = 1
}
`
	fset, f := parseTestFile(t, src)
	diags := []Diagnostic{{Pos: lineOf(fset, f, 5), Analyzer: "detclock", Message: "kept"}}
	got := Filter(fset, []*ast.File{f}, diags)
	if len(got) != 1 || got[0].Message != "kept" {
		t.Fatalf("lookalike directive suppressed a finding: %v", got)
	}
}

func TestApplyKeepsSuppressedMarked(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore detclock justified
	_ = 1
	_ = 2
}
`
	fset, f := parseTestFile(t, src)
	diags := []Diagnostic{
		{Pos: lineOf(fset, f, 5), Analyzer: "detclock", Message: "suppressed one"},
		{Pos: lineOf(fset, f, 6), Analyzer: "detclock", Message: "live one"},
	}
	got := Apply(fset, []*ast.File{f}, diags, []string{"detclock"})
	if len(got) != 2 {
		t.Fatalf("Apply returned %d results, want 2 (suppressed findings stay, marked): %v", len(got), got)
	}
	if !got[0].Suppressed || got[0].Diag.Message != "suppressed one" {
		t.Errorf("first result should be the suppressed finding, got %+v", got[0])
	}
	if got[1].Suppressed || got[1].Diag.Message != "live one" {
		t.Errorf("second result should be the live finding, got %+v", got[1])
	}
}

func TestApplyReportsStaleDirective(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore detclock nothing here trips detclock anymore
	_ = 1
}
`
	fset, f := parseTestFile(t, src)
	got := Apply(fset, []*ast.File{f}, nil, []string{"detclock"})
	if len(got) != 1 {
		t.Fatalf("Apply returned %d results, want 1 stale-directive report: %v", len(got), got)
	}
	d := got[0].Diag
	if d.Analyzer != "dtmlint" || !strings.Contains(d.Message, "stale //lint:ignore detclock") {
		t.Errorf("unexpected stale report %+v", d)
	}
	if got[0].Suppressed {
		t.Error("a stale-directive report must not itself be suppressed")
	}
}

func TestApplyStaleUndecidableWhenAnalyzerSkipped(t *testing.T) {
	src := `package p

func f() {
	//lint:ignore detclock,gosites spans an analyzer the driver skipped
	_ = 1
}
`
	fset, f := parseTestFile(t, src)
	// gosites did not run on this package: the directive might suppress
	// one of its findings, so staleness is undecidable and stays quiet.
	if got := Apply(fset, []*ast.File{f}, nil, []string{"detclock"}); len(got) != 0 {
		t.Fatalf("Apply reported %v for a directive naming a skipped analyzer", got)
	}
	// With both analyzers ran and nothing suppressed, it is decidably stale.
	got := Apply(fset, []*ast.File{f}, nil, []string{"detclock", "gosites"})
	if len(got) != 1 || !strings.Contains(got[0].Diag.Message, "stale //lint:ignore detclock,gosites") {
		t.Fatalf("Apply = %v, want one stale report naming both analyzers", got)
	}
}

func TestApplyMalformedReportedOnce(t *testing.T) {
	src := `package p

//lint:ignore
func f() {}
`
	fset, f := parseTestFile(t, src)
	// Unlike Filter (called once per analyzer), Apply sees the package's
	// combined findings and reports each malformed directive exactly once.
	got := Apply(fset, []*ast.File{f}, nil, []string{"detclock", "detrange", "gosites"})
	if len(got) != 1 {
		t.Fatalf("Apply returned %d results, want exactly 1 malformed report: %v", len(got), got)
	}
	if !strings.Contains(got[0].Diag.Message, "analyzer name and a reason") {
		t.Errorf("unexpected malformed report %+v", got[0])
	}
}

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		max  int
		want int
	}{
		{"depgraph.live_verts", "depgraph.live_vertices", 2, 3}, // beyond cutoff
		{"greedy.within_bouund", "greedy.within_bound", 2, 1},
		{"core.commits", "core.commits", 2, 0},
		{"a", "abcde", 2, 3}, // length gap short-circuits to max+1
		{"bucket.level", "bucket.leveI", 2, 1},
	}
	for _, c := range cases {
		if got := editDistance(c.a, c.b, c.max); got != c.want {
			t.Errorf("editDistance(%q, %q, %d) = %d, want %d", c.a, c.b, c.max, got, c.want)
		}
	}
}
