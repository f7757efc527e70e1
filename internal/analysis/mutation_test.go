package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtm/internal/analysis"
)

// TestMutationProbe is the lint gate's own regression test: inject a
// shared-map write two call levels below the tree warm-up closure in
// core.NewSim into a scratch copy of the module and assert parpurity
// flags it at the call site, tracing the witness back to the probe. If
// this test starts passing without the finding, the analyzer has gone
// blind and `make lint` no longer proves the par.Runner.Map contract.
func TestMutationProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("copies and re-type-checks the module; skipped in -short")
	}
	root := moduleRoot(t)
	tmp := t.TempDir()
	copyModule(t, root, tmp)

	// Clean copy first: the probe finding must be attributable to the
	// mutation, not to pre-existing noise.
	if diags := runParpurity(t, tmp, "dtm/internal/core"); len(diags) != 0 {
		t.Fatalf("unmutated module already has %d parpurity finding(s) in core: %v", len(diags), diags[0].Message)
	}

	// The probe: a method that forwards to a second method that writes a
	// package-level map. Two call levels between the closure and the
	// violation, exactly the depth the acceptance criteria demand.
	probe := `package core

var lintProbeSeen = map[int]int{}

func (s *Sim) lintProbe(i int) { s.lintProbeDeep(i) }

func (s *Sim) lintProbeDeep(i int) { lintProbeSeen[i]++ }
`
	if err := os.WriteFile(filepath.Join(tmp, "internal/core/zz_probe.go"), []byte(probe), 0o644); err != nil {
		t.Fatal(err)
	}
	spath := filepath.Join(tmp, "internal/core/sim.go")
	src, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	const anchor = "\t\t\tg.Dist(v, v)\n"
	if !strings.Contains(string(src), anchor) {
		t.Fatalf("mutation anchor %q not found in sim.go; update the probe site", strings.TrimSpace(anchor))
	}
	mutated := strings.Replace(string(src), anchor, "\t\t\ts.lintProbe(i)\n"+anchor, 1)
	if err := os.WriteFile(spath, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}

	diags := runParpurity(t, tmp, "dtm/internal/core")
	if len(diags) == 0 {
		t.Fatal("parpurity missed the injected shared-map write behind s.lintProbe; the lint gate is blind")
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "s.lintProbe") && strings.Contains(d.Message, "lintProbeSeen") {
			found = true
		}
	}
	if !found {
		t.Errorf("finding does not name both the call site and the transitive witness: %v", diags[0].Message)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// copyModule copies the module's Go sources and go.mod into dst, skipping
// VCS metadata, fixtures, and test files — the same shipped-code view the
// loader takes.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// runParpurity loads the module at root and runs parpurity over one
// package, returning its diagnostics.
func runParpurity(t *testing.T, root, pkgPath string) []analysis.Diagnostic {
	t.Helper()
	loader, err := analysis.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("loading mutated module: %v", err)
	}
	mod := analysis.NewModule(pkgs)
	for _, pkg := range pkgs {
		if pkg.Path == pkgPath {
			diags, err := analysis.RunAnalyzer(analysis.Parpurity, pkg, mod)
			if err != nil {
				t.Fatal(err)
			}
			return diags
		}
	}
	t.Fatalf("package %s not found in module copy", pkgPath)
	return nil
}
