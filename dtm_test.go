package dtm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dtm/internal/batch"
)

// The facade is exercised end to end exactly the way the README shows.
func TestFacadeQuickstartFlow(t *testing.T) {
	g, err := Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 8, Rounds: 3,
		Arrival: ArrivalPeriodic, Period: 2, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(in, NewGreedy(GreedyOptions{}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Makespan <= 0 || rr.MaxRatio <= 0 {
		t.Errorf("result = makespan %d ratio %.2f", rr.Makespan, rr.MaxRatio)
	}
	// Trace capture and re-validation round trip.
	tr := CaptureTrace(in, rr)
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace validation: %v", err)
	}
	// Decision log replays.
	if _, err := Replay(in, rr.Decisions, SimOptions{}); err != nil {
		t.Fatalf("replay: %v", err)
	}
}

// A run given no registry keeps a private one: the registry is the only
// count of what the engine did, so its snapshot is never missing.
func TestFacadeRunKeepsARegistry(t *testing.T) {
	g, err := Clique(8)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{K: 2, NumObjects: 8, Rounds: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(in, NewGreedy(GreedyOptions{}), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Metrics == nil {
		t.Fatal("Run without RunOptions.Obs returned no metrics")
	}
	if got := rr.Metrics.Counters["greedy.colors_assigned"]; got != int64(len(in.Txns)) {
		t.Errorf("greedy.colors_assigned = %d, want %d transactions", got, len(in.Txns))
	}
}

func TestFacadeSchedulers(t *testing.T) {
	g, err := Line(16)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 8, Rounds: 2,
		Arrival: ArrivalPeriodic, Period: 20, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	schedulers := []Scheduler{
		NewGreedy(GreedyOptions{}),
		NewCoordinator(0, GreedyOptions{}),
		NewBucket(BucketOptions{Batch: TourBatch()}),
		NewBucket(BucketOptions{Batch: batch.Coloring{}}),
		NewBucket(BucketOptions{Batch: batch.List{}}),
		NewBucket(BucketOptions{Batch: batch.WithSuffixProperty(batch.Tour{})}),
	}
	for _, s := range schedulers {
		if _, err := Run(in, s, RunOptions{}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestFacadeDistributed(t *testing.T) {
	g, err := Grid(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	in, err := Generate(g, WorkloadConfig{
		K: 2, NumObjects: 6, Rounds: 1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	proto := NewDistributed(DistributedOptions{Batch: TourBatch(), Seed: 2})
	res, err := Run(in, proto, RunOptions{Obs: NewMetrics()})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Counters["distnet.messages"] == 0 {
		t.Error("distributed run sent no messages")
	}
	// The registry default is the same protocol, and it runs at half
	// speed without being told.
	s, err := NewEngine("distributed")
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Run(in, s, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.SlowFactor != 2 {
		t.Errorf("NewEngine(distributed) ran at SlowFactor %d, want 2", rr.SlowFactor)
	}
}

func TestFacadeCover(t *testing.T) {
	g, err := Star(StarSpec{Rays: 3, RayLen: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := BuildCover(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Verify(); err != nil {
		t.Fatal(err)
	}
}

// neededBy maps each facade name that no example, benchmark or command
// uses to the kept declaration it serves, as the type of a parameter,
// result, field or interface method.
var neededBy = map[string]string{
	"Sim":            "SchedulerEnv",      // Env.Sim
	"RatioPoint":     "RunResult",         // RunResult.Ratios
	"AbandonedTx":    "DistributedReport", // Report.Abandoned
	"BatchProblem":   "BatchScheduler",    // Schedule's parameter
	"BatchScheduler": "TourBatch",         // its result
	"MetricsEvent":   "Sink",              // Sink.Event's parameter
	"Sink":           "NewJSONLSink",      // its result
	"CoverHierarchy": "BuildCover",        // its result
	"TraceRun":       "CaptureTrace",      // its result
	"CrashWindow":    "ParseCrashWindows", // its result
}

// TestFacadeNamesHaveCallers keeps forwards out of the facade: every
// exported name dtm.go declares is used as dtm.<Name> in a Go file under
// examples/, _perfbench/ or cmd/, or serves such a name through neededBy.
// A neededBy entry for a name that has a caller, or that is not declared,
// or that serves nothing kept, is stale.
func TestFacadeNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dtm.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declared[d.Name.Name] = d.Name.IsExported()
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declared[s.Name.Name] = s.Name.IsExported()
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared[n.Name] = n.IsExported()
					}
				}
			}
		}
	}
	used := map[string]bool{}
	for _, dir := range []string{"examples", "_perfbench", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, imp := range file.Imports {
				if imp.Path.Value != `"dtm"` {
					continue
				}
				local := "dtm"
				if imp.Name != nil {
					local = imp.Name.Name
				}
				ast.Inspect(file, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
							used[sel.Sel.Name] = true
						}
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var names []string
	for name, exported := range declared {
		if exported {
			names = append(names, name)
		}
	}
	for name := range neededBy {
		if !declared[name] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		kept, listed := neededBy[name]
		switch {
		case !declared[name]:
			t.Errorf("neededBy lists %s, which dtm.go does not declare", name)
		case used[name] && listed:
			t.Errorf("dtm.%s has callers; its neededBy entry is stale", name)
		case !used[name] && !listed:
			t.Errorf("dtm.%s has no caller in examples/, _perfbench/ or cmd/ and serves no kept name: remove the forward", name)
		case listed && !keptName(kept, used, len(neededBy)):
			t.Errorf("neededBy says %s serves %s, which is not a kept name", name, kept)
		}
	}
}

// keptName reports whether name has a caller, directly or through at
// most hops neededBy links.
func keptName(name string, used map[string]bool, hops int) bool {
	for ; hops >= 0; hops-- {
		if used[name] {
			return true
		}
		next, ok := neededBy[name]
		if !ok {
			return false
		}
		name = next
	}
	return false
}
