// Package analysistest runs a dtmlint analyzer over a testdata fixture
// package and checks its findings against `// want` expectations, in the
// style of golang.org/x/tools/go/analysis/analysistest.
//
// Each fixture file marks the lines that must produce a finding:
//
//	return time.Now() // want `wall-clock time\.Now in engine package`
//
// The quoted (or back-quoted) text is a regular expression matched
// against the finding's message; several expectations may share a line.
// Lines without a want comment must produce no finding — fixtures thus
// carry the negative cases alongside the positive ones.
package analysistest

import (
	"regexp"
	"testing"

	"dtm/internal/analysis"
)

// wantRe extracts the quoted regexes of a want comment.
var wantRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectation is one want entry: a regexp expected to match a finding on
// a given line.
type expectation struct {
	line int
	re   *regexp.Regexp
	hit  bool
}

// Run loads the fixture package rooted at dir (relative to the calling
// test's working directory), applies a to it — bypassing AppliesTo, the
// driver's concern — and compares findings with the fixture's want
// comments.
func Run(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir, "dtmlintfixture/"+a.Name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags, err := analysis.RunAnalyzer(a, pkg)
	if err != nil {
		t.Fatal(err)
	}

	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				const marker = "// want "
				idx := indexOf(c.Text, marker)
				if idx < 0 {
					continue
				}
				line := pkg.Fset.Position(c.Pos()).Line
				ms := wantRe.FindAllStringSubmatch(c.Text[idx+len(marker):], -1)
				if len(ms) == 0 {
					t.Errorf("%s:%d: malformed want comment %q", dir, line, c.Text)
					continue
				}
				for _, m := range ms {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", dir, line, pat, err)
						continue
					}
					wants = append(wants, &expectation{line: line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected finding: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", dir, w.line, w.re)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("finding: %s: %s", pkg.Fset.Position(d.Pos), d.Message)
		}
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
