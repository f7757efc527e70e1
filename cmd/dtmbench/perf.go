package main

// The -perfjson timing harness: one case table, one measure loop, one row
// schema (BENCH_perf.json). Wall clock stays out of the experiment tables,
// whose parallel and sequential runs must render byte-identical output.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"dtm/internal/core"
	"dtm/internal/engine"
	"dtm/internal/graph"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

// perfVariant is one configuration a case is timed under.
type perfVariant struct {
	P      int  // core.SimOptions.Parallel: tree warm-up width, 1 = sequential
	Oracle bool // run the engine's rebuild oracle (engine.Desc.Oracle)
}

// perfCase is one workload of the timing table, timed under each of its
// variants. Every variant must yield byte-identical decisions and result.
type perfCase struct {
	name, engine, topology string
	// instance builds the case's graph and instance. It is deterministic:
	// every call yields the same instance on a graph with no trees built.
	instance func() (*core.Instance, error)
	// cold cases build a fresh instance before every timed run, so each
	// run builds its shortest-path trees: that is the work the warm-up
	// spreads over P workers. Other cases reuse one instance, whose trees
	// the untimed run builds.
	cold     bool
	variants []perfVariant
	run      func(in *core.Instance, v perfVariant) ([]core.Decision, *core.Result, error)
}

// perfRow is one (case, variant) row of BENCH_perf.json.
type perfRow struct {
	Case             string  `json:"case"`
	Engine           string  `json:"engine"`
	Topology         string  `json:"topology"`
	N                int     `json:"n"`
	Txns             int     `json:"txns"`
	Arrivals         int     `json:"arrivals"` // distinct arrival times
	P                int     `json:"P"`
	Oracle           bool    `json:"oracle"`
	Seconds          float64 `json:"seconds"` // fastest timed run
	NsPerArrival     float64 `json:"ns_per_arrival"`
	AllocsPerArrival float64 `json:"allocs_per_arrival"` // mean over the timed runs
	BytesPerArrival  float64 `json:"bytes_per_arrival"`
	Speedup          float64 `json:"speedup"` // the case's first variant's Seconds over this row's
	Identical        bool    `json:"identical"`
}

// The one measure budget: at least perfMinRuns timed runs, continuing
// while under perfBudget and perfMaxRuns.
const (
	perfMinRuns = 3
	perfMaxRuns = 200
	perfBudget  = 2 * time.Second
)

// measure times c under v. One untimed run grows the heap and, unless c
// is cold, builds the trees the timed runs reuse; its decisions and
// result come back as JSON for the identity check. The row keeps the
// fastest timed run, since noise only ever slows a run, and averages
// allocations over the timed runs, counted around the timed call only.
func measure(c perfCase, v perfVariant) (perfRow, []byte, error) {
	in, err := c.instance()
	if err != nil {
		return perfRow{}, nil, err
	}
	decisions, res, err := c.run(in, v)
	if err != nil {
		return perfRow{}, nil, err
	}
	out, err := json.Marshal(struct {
		Decisions []core.Decision
		Result    *core.Result
	}{decisions, res})
	if err != nil {
		return perfRow{}, nil, err
	}
	best := time.Duration(math.MaxInt64)
	var mallocs, allocBytes uint64
	runs := 0
	for begin := time.Now(); runs < perfMinRuns || (time.Since(begin) < perfBudget && runs < perfMaxRuns); runs++ {
		if c.cold {
			if in, err = c.instance(); err != nil {
				return perfRow{}, nil, err
			}
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		_, _, err := c.run(in, v)
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return perfRow{}, nil, err
		}
		best = min(best, d)
		mallocs += m1.Mallocs - m0.Mallocs
		allocBytes += m1.TotalAlloc - m0.TotalAlloc
	}
	times, _ := in.ArrivalGroups()
	arrivals := len(times)
	perRun := float64(runs) * float64(arrivals)
	return perfRow{
		Case: c.name, Engine: c.engine, Topology: c.topology,
		N: in.G.N(), Txns: len(in.Txns), Arrivals: arrivals,
		P: v.P, Oracle: v.Oracle,
		Seconds:          best.Seconds(),
		NsPerArrival:     float64(best.Nanoseconds()) / float64(arrivals),
		AllocsPerArrival: float64(mallocs) / perRun,
		BytesPerArrival:  float64(allocBytes) / perRun,
	}, out, nil
}

// writePerf times every case under each of its variants and writes one
// row per (case, variant) to path, logging progress to log. It writes
// nothing if a variant's decisions or result differ from the case's first
// variant's.
func writePerf(path string, cases []perfCase, log io.Writer) error {
	var rows []perfRow
	for _, c := range cases {
		var ref []byte
		var first float64
		for i, v := range c.variants {
			fmt.Fprintf(log, "dtmbench: perf %s %s P=%d oracle=%t...\n", c.name, c.topology, v.P, v.Oracle)
			row, out, err := measure(c, v)
			if err != nil {
				return fmt.Errorf("%s %s P=%d oracle=%t: %w", c.name, c.topology, v.P, v.Oracle, err)
			}
			if i == 0 {
				ref, first = out, row.Seconds
			} else if !bytes.Equal(out, ref) {
				return fmt.Errorf("%s %s: P=%d oracle=%t decisions or result differ from P=%d oracle=%t",
					c.name, c.topology, v.P, v.Oracle, c.variants[0].P, c.variants[0].Oracle)
			}
			row.Speedup = first / row.Seconds
			row.Identical = true
			fmt.Fprintf(log, "dtmbench:   %.4fs (%.2fx), %.1f allocs/arrival\n", row.Seconds, row.Speedup, row.AllocsPerArrival)
			rows = append(rows, row)
		}
	}
	report := struct {
		// Procs and Note lead the artifact so a single-core run is
		// self-describing: its P>1 rows measure only the warm-up's
		// overhead, never its win.
		Procs int       `json:"procs"`
		Note  string    `json:"note,omitempty"`
		Rows  []perfRow `json:"rows"`
	}{Procs: runtime.GOMAXPROCS(0), Rows: rows}
	if report.Procs == 1 {
		report.Note = "single-core run (GOMAXPROCS=1): parallel widths share one CPU, so speedups reflect engine overhead only — rerun on multi-core hardware for real curves"
		fmt.Fprintf(log, "dtmbench: WARNING: %s\n", report.Note)
	}
	if err := writeJSON(path, report); err != nil {
		return err
	}
	fmt.Fprintf(log, "dtmbench: %d rows written to %s\n", len(rows), path)
	return nil
}

// schedule returns a case runner for the registry engine id, with ratio
// snapshots off.
func schedule(id string) func(*core.Instance, perfVariant) ([]core.Decision, *core.Result, error) {
	return scheduleSnapshots(id, -1)
}

// scheduleSnapshots returns a case runner for the registry engine id that
// takes a ratio snapshot at every every-th arrival time (sched.Options).
func scheduleSnapshots(id string, every int) func(*core.Instance, perfVariant) ([]core.Decision, *core.Result, error) {
	d, _ := engine.ByID(id)
	return func(in *core.Instance, v perfVariant) ([]core.Decision, *core.Result, error) {
		mk := d.New
		if v.Oracle {
			mk = d.Oracle
		}
		rr, err := sched.Run(in, mk(), sched.Options{
			SnapshotEvery: every,
			Sim:           core.SimOptions{Parallel: v.P},
		})
		if err != nil {
			return nil, nil, err
		}
		return rr.Decisions, rr.Result, nil
	}
}

// instance returns a builder of the workload cfg on a fresh graph from mk.
func instance(mk func() (*graph.Graph, error), cfg workload.Config) func() (*core.Instance, error) {
	return func() (*core.Instance, error) {
		g, err := mk()
		if err != nil {
			return nil, err
		}
		return workload.Generate(g, cfg)
	}
}

// perfCases is the timing table of BENCH_perf.json.
func perfCases() ([]perfCase, error) {
	var cases []perfCase
	// Incremental vs rebuild (T12): the conflict index and the batch
	// sessions against the per-arrival rebuild oracle, on the standard CPU
	// workloads. The oracle runs first, so speedup is rebuild over
	// incremental.
	oracle := []perfVariant{{P: 1, Oracle: true}, {P: 1}}
	for _, n := range []int{64, 256, 1024} {
		clique := instance(func() (*graph.Graph, error) { return graph.Clique(n) }, workload.Config{
			K: 3, NumObjects: n, Rounds: 3,
			Arrival: workload.ArrivalPeriodic, Period: 2, Seed: 1,
		})
		line := instance(func() (*graph.Graph, error) { return graph.Line(n) }, workload.Config{
			K: 2, NumObjects: n / 2, Rounds: 2,
			Arrival: workload.ArrivalPeriodic, Period: core.Time(n), Seed: 1,
		})
		cliqueName, lineName := fmt.Sprintf("clique(%d)", n), fmt.Sprintf("line(%d)", n)
		cases = append(cases,
			perfCase{name: "greedy-clique", engine: "greedy", topology: cliqueName,
				instance: clique, variants: oracle, run: schedule("greedy")},
			perfCase{name: "bucket-tour-line", engine: "bucket-tour", topology: lineName,
				instance: line, variants: oracle, run: schedule("bucket-tour")},
			perfCase{name: "bucket-coloring-line", engine: "bucket-coloring", topology: lineName,
				instance: line, variants: oracle, run: schedule("bucket-coloring")},
		)
	}

	// Tree warm-up (T13): with P>1, core.NewSim builds every shortest-path
	// tree over P workers, then runs sequentially. Each timed run starts on
	// a fresh graph. At n=4096 every tree together takes 0.4 GB (24 B per
	// node pair); n=16384 would take 6.4 GB.
	warm := []perfVariant{{P: 1}, {P: 2}, {P: 4}, {P: 8}}
	grid := instance(func() (*graph.Graph, error) { return graph.Grid(64, 64) }, workload.Config{
		K: 2, NumObjects: 4096 / 8, Rounds: 1, Arrival: workload.ArrivalBatch, Seed: 1,
	})
	line := instance(func() (*graph.Graph, error) { return graph.Line(4096) }, workload.Config{
		K: 2, NumObjects: 4096 / 2, Rounds: 1, Arrival: workload.ArrivalBatch, Seed: 1,
	})
	// The ratio case is the benchmark's ratio-window input at seed 1:
	// Algorithm W with a ratio snapshot, and its OPT lower bound, at every
	// arrival time. Every other case runs with snapshots off.
	ratioWindow := instance(func() (*graph.Graph, error) { return graph.Grid(32, 32) }, workload.Config{
		K: 2, NumObjects: 1024, Rounds: 16, Arrival: workload.ArrivalPoisson, Period: 8, Seed: 1,
	})
	// The replay case drives core.Replay, with no scheduler in the loop, on
	// the decision log greedy makes for the grid instance.
	gridIn, err := grid()
	if err != nil {
		return nil, err
	}
	greedyLog, _, err := schedule("greedy")(gridIn, perfVariant{P: 1})
	if err != nil {
		return nil, err
	}
	replay := func(in *core.Instance, v perfVariant) ([]core.Decision, *core.Result, error) {
		res, err := core.Replay(in, greedyLog, core.SimOptions{Parallel: v.P}, nil)
		return greedyLog, res, err
	}
	return append(cases,
		perfCase{name: "warmup-greedy", engine: "greedy", topology: "grid(64,64)",
			instance: grid, cold: true, variants: warm, run: schedule("greedy")},
		perfCase{name: "warmup-bucket-tour", engine: "bucket-tour", topology: "line(4096)",
			instance: line, cold: true, variants: warm, run: schedule("bucket-tour")},
		perfCase{name: "warmup-replay-greedy", engine: "replay-greedy", topology: "grid(64,64)",
			instance: grid, cold: true, variants: warm, run: replay},
		perfCase{name: "ratio-window", engine: "window", topology: "grid(32,32)",
			instance: ratioWindow, variants: []perfVariant{{P: 1}, {P: 2}}, run: scheduleSnapshots("window", 1)},
	), nil
}
