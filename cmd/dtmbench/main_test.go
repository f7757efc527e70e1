package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dtm/internal/core"
	"dtm/internal/experiments"
	"dtm/internal/graph"
	"dtm/internal/workload"
)

// tinyCases is a small timing table: greedy on Clique(8) with the oracle
// off and on, and a cold warm-up case on Grid(4,4) at P in {1,2}.
func tinyCases() []perfCase {
	cfg := workload.Config{
		K: 2, NumObjects: 8, Rounds: 2,
		Arrival: workload.ArrivalPeriodic, Period: 2, Seed: 1,
	}
	return []perfCase{
		{name: "greedy-clique", engine: "greedy", topology: "clique(8)",
			instance: instance(func() (*graph.Graph, error) { return graph.Clique(8) }, cfg),
			variants: []perfVariant{{P: 1}, {P: 1, Oracle: true}}, run: schedule("greedy")},
		{name: "warmup-greedy", engine: "greedy", topology: "grid(4,4)", cold: true,
			instance: instance(func() (*graph.Graph, error) { return graph.Grid(4, 4) }, cfg),
			variants: []perfVariant{{P: 1}, {P: 2}}, run: schedule("greedy")},
	}
}

func TestWritePerfRows(t *testing.T) {
	path := filepath.Join(t.TempDir(), "perf.json")
	if err := writePerf(path, tinyCases(), io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw struct {
		Procs int                          `json:"procs"`
		Note  *string                      `json:"note"`
		Rows  []map[string]json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if raw.Procs != runtime.GOMAXPROCS(0) {
		t.Errorf("procs = %d, want GOMAXPROCS %d", raw.Procs, runtime.GOMAXPROCS(0))
	}
	if (raw.Note != nil) != (raw.Procs == 1) {
		t.Errorf("note present = %t with procs %d; want it only when procs is 1", raw.Note != nil, raw.Procs)
	}
	schema := []string{"P", "allocs_per_arrival", "arrivals", "bytes_per_arrival", "case", "engine",
		"identical", "n", "ns_per_arrival", "oracle", "seconds", "speedup", "topology", "txns"}
	for i, row := range raw.Rows {
		var keys []string
		for k := range row {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, schema) {
			t.Errorf("row %d keys = %v, want %v", i, keys, schema)
		}
	}

	var report struct{ Rows []perfRow }
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name, topology string
		n, P           int
		oracle         bool
	}{
		{"greedy-clique", "clique(8)", 8, 1, false},
		{"greedy-clique", "clique(8)", 8, 1, true},
		{"warmup-greedy", "grid(4,4)", 16, 1, false},
		{"warmup-greedy", "grid(4,4)", 16, 2, false},
	}
	if len(report.Rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(report.Rows), len(want))
	}
	for i, r := range report.Rows {
		w := want[i]
		if r.Case != w.name || r.Topology != w.topology || r.N != w.n || r.P != w.P || r.Oracle != w.oracle {
			t.Errorf("row %d = %s %s n=%d P=%d oracle=%t, want %+v", i, r.Case, r.Topology, r.N, r.P, r.Oracle, w)
		}
		if !r.Identical || !(r.Seconds > 0) || !(r.NsPerArrival > 0) || r.Txns == 0 || r.Arrivals == 0 {
			t.Errorf("row %d = %+v: want identical, positive seconds and ns/arrival, nonzero txns and arrivals", i, r)
		}
		// Each case has two variants, so its first row is at an even index.
		if first := report.Rows[i-i%2]; r.Speedup != first.Seconds/r.Seconds {
			t.Errorf("row %d speedup = %v, want its case's first seconds over its own, %v", i, r.Speedup, first.Seconds/r.Seconds)
		}
	}
}

func TestWritePerfRejectsDifferentSchedule(t *testing.T) {
	bad := tinyCases()[0]
	bad.name = "drops-a-decision"
	bad.variants = []perfVariant{{P: 1}, {P: 2}}
	bad.run = func(in *core.Instance, v perfVariant) ([]core.Decision, *core.Result, error) {
		decisions, res, err := schedule("greedy")(in, v)
		if v.P == 2 && len(decisions) > 0 {
			decisions = decisions[1:]
		}
		return decisions, res, err
	}
	path := filepath.Join(t.TempDir(), "perf.json")
	err := writePerf(path, []perfCase{tinyCases()[0], bad}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "drops-a-decision") {
		t.Fatalf("writePerf error = %v, want one naming the mismatched case", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("writePerf left %s behind after a failed identity check (stat: %v)", path, err)
	}
}

func TestExpJSONMatchesTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t11.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "T11", "-quick", "-json", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got tableReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	e, _ := experiments.ByID("T11")
	tb, err := e.Run(experiments.Config{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != e.ID || got.Claim != e.Claim || !got.Quick || got.Seed != 42 {
		t.Errorf("report = %s quick=%t seed=%d, want %s quick seed 42", got.Experiment, got.Quick, got.Seed, e.ID)
	}
	if !reflect.DeepEqual(got.Header, tb.Headers) || !reflect.DeepEqual(got.Rows, tb.Rows) {
		t.Errorf("report header/rows = %q %q, want %q %q", got.Header, got.Rows, tb.Headers, tb.Rows)
	}
	if stdout.Len() != 0 {
		t.Errorf("-json also wrote to stdout: %q", stdout.String())
	}
}

// TestListIsTheExperimentCatalogue checks that -list prints every
// experiment and leaves the engine table to dtmsim -sched list.
func TestListIsTheExperimentCatalogue(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, e := range experiments.All {
		if !strings.Contains(out, e.ID+" ") {
			t.Errorf("-list does not name experiment %s", e.ID)
		}
	}
	if want := "\nengines: see dtmsim -sched list\n"; !strings.HasSuffix(out, want) {
		t.Errorf("-list output ends %q, want the pointer %q", out[max(0, len(out)-80):], want)
	}
	if strings.Contains(out, "bucket-tour") {
		t.Error("-list prints an engine table; dtmsim -sched list owns it")
	}
}

// TestConflictingModesRejected stops at the first accepted conflict: a
// mode that slips through runs for real, and -perfjson takes minutes.
// Cases whose slip would be cheap come first, and -quick keeps an
// accidental experiment run short.
func TestConflictingModesRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	for _, args := range [][]string{
		{},
		{"-list", "-exp", "F1"},
		{"-list", "-perfjson", path},
		{"-exp", "T11", "-quick", "-faultjson", path}, // unknown flag
		{"-json", path},
		{"-list", "-json", path},
		{"-exp", "list", "-json", path},
		{"-exp", "T11", "-quick", "-csv", "-json", path},
		{"-exp", "all", "-quick", "-json", path},
		{"-perfjson", path, "-json", path},
		{"-exp", "T11", "-quick", "-perfjson", path},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("%q: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "Usage of dtmbench") {
			t.Errorf("%q: no usage message on stderr: %q", args, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%q: wrote to stdout: %q", args, stdout.String())
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("%q: wrote %s", args, path)
		}
	}
}
