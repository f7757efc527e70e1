// Command dtmbench regenerates the constructed evaluation of DESIGN.md §5:
// every table and figure backing the paper's claims.
//
//	dtmbench -list                 # show all experiments
//	dtmbench -exp F1               # regenerate one
//	dtmbench -exp all              # regenerate everything (alias for -all)
//	dtmbench -exp F5 -csv          # machine-readable output
//	dtmbench -all -parallel 1      # force sequential trial execution
//	dtmbench -all -benchjson F.json  # time sequential vs parallel, verify identical
//	dtmbench -exp t11              # fault-injection sweep (IDs are case-insensitive)
//	dtmbench -quick -faultjson BENCH_faults.json  # T11 rows as a JSON artifact
//	dtmbench -quick -streamjson BENCH_stream.json # T14 stability frontier as a JSON artifact
//	dtmbench -quick -parjson BENCH_par.json       # tree warm-up: seq vs P in {2,4,8}
//
// Trials within each experiment run on the internal/runner worker pool.
// -parallel selects the pool size: 0 (default) uses GOMAXPROCS, 1 runs
// sequentially, N>1 uses N workers. Output tables are byte-identical for
// every setting.
package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"dtm"
	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/engine"
	"dtm/internal/experiments"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/workload"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list experiments")
		exp        = flag.String("exp", "", "experiment ID to run (e.g. F1, T3, or 'all')")
		all        = flag.Bool("all", false, "run every experiment")
		quick      = flag.Bool("quick", false, "smaller sweeps")
		seed       = flag.Int64("seed", 42, "random seed")
		csv        = flag.Bool("csv", false, "emit CSV")
		metrics    = flag.Bool("metrics", false, "print a JSON metrics report per experiment")
		parallel   = flag.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		benchjson  = flag.String("benchjson", "", "run all experiments sequentially then in parallel, write timing JSON to FILE")
		faultjson  = flag.String("faultjson", "", "run the T11 fault sweep and write its rows as JSON to FILE")
		streamjson = flag.String("streamjson", "", "run the T14 stability frontier and write its rows as JSON to FILE")
		scalejson  = flag.String("scalejson", "", "benchmark incremental vs rebuild engines per arrival, write JSON to FILE")
		parjson    = flag.String("parjson", "", "benchmark sequential runs vs the concurrent tree warm-up, write JSON to FILE")
	)
	flag.Parse()
	switch {
	case *list, *exp == "list":
		fmt.Println("experiments:")
		for _, e := range experiments.All {
			fmt.Printf("%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
		}
		fmt.Println("\nengines (dtmsim -sched <id>):")
		for _, d := range engine.All() {
			alias := ""
			if len(d.Aliases) > 0 {
				alias = " (alias " + strings.Join(d.Aliases, ", ") + ")"
			}
			var caps []string
			if d.Caps.Distributed {
				caps = append(caps, "distributed")
			}
			if d.Caps.Oracle {
				caps = append(caps, "oracle")
			}
			if d.Caps.Stream {
				caps = append(caps, "stream")
			}
			fmt.Printf("%-16s%s [%s]\n     %s\n", d.ID, alias, strings.Join(caps, ","), d.Doc)
		}
	case *parjson != "":
		if err := runParBench(*parjson, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "dtmbench:", err)
			os.Exit(1)
		}
	case *scalejson != "":
		if err := runScaleBench(*scalejson, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "dtmbench:", err)
			os.Exit(1)
		}
	case *faultjson != "":
		if err := runTableBench(*faultjson, "T11", *quick, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "dtmbench:", err)
			os.Exit(1)
		}
	case *streamjson != "":
		if err := runTableBench(*streamjson, "T14", *quick, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "dtmbench:", err)
			os.Exit(1)
		}
	case *benchjson != "":
		if err := runBench(*benchjson, *quick, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "dtmbench:", err)
			os.Exit(1)
		}
	case *all || *exp == "all":
		for _, e := range experiments.All {
			if err := runOne(os.Stdout, e, *quick, *seed, *csv, *metrics, *parallel); err != nil {
				fmt.Fprintln(os.Stderr, "dtmbench:", err)
				os.Exit(1)
			}
		}
	case *exp != "":
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "dtmbench: unknown experiment %q (use -list)\n", *exp)
			os.Exit(1)
		}
		if err := runOne(os.Stdout, e, *quick, *seed, *csv, *metrics, *parallel); err != nil {
			fmt.Fprintln(os.Stderr, "dtmbench:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(w io.Writer, e experiments.Experiment, quick bool, seed int64, csv, metrics bool, workers int) error {
	cfg := experiments.Config{Quick: quick, Seed: seed, Workers: workers}
	if metrics {
		cfg.Obs = dtm.NewMetrics()
	}
	tb, err := e.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprintf(w, "\n[%s] %s\n# claim: %s\n", e.ID, e.Title, e.Claim)
	if csv {
		if err := tb.RenderCSV(w); err != nil {
			return err
		}
	} else if err := tb.Render(w); err != nil {
		return err
	}
	if metrics {
		return cfg.Obs.Snapshot().WriteJSON(w)
	}
	return nil
}

// runTableBench runs one registered experiment and writes its table as a
// machine-readable JSON report (header + rows) to path, for CI artifacts
// tracking the measured envelope over time (T11 faults, T14 stability).
func runTableBench(path, id string, quick bool, seed int64) error {
	e, ok := experiments.ByID(id)
	if !ok {
		return fmt.Errorf("experiment %s not registered", id)
	}
	start := time.Now()
	tb, err := e.Run(experiments.Config{Quick: quick, Seed: seed})
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	var buf bytes.Buffer
	if err := tb.RenderCSV(&buf); err != nil {
		return err
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		return err
	}
	if len(records) == 0 {
		return fmt.Errorf("%s rendered an empty table", id)
	}
	report := struct {
		Experiment string     `json:"experiment"`
		Claim      string     `json:"claim"`
		Quick      bool       `json:"quick"`
		Seed       int64      `json:"seed"`
		Seconds    float64    `json:"seconds"`
		Header     []string   `json:"header"`
		Rows       [][]string `json:"rows"`
	}{
		Experiment: e.ID,
		Claim:      e.Claim,
		Quick:      quick,
		Seed:       seed,
		Seconds:    time.Since(start).Seconds(),
		Header:     records[0],
		Rows:       records[1:],
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dtmbench: %s (%d rows) written to %s\n", id, len(report.Rows), path)
	return nil
}

// scaleEngine holds per-arrival cost figures for one engine on one workload.
type scaleEngine struct {
	NsPerArrival     float64 `json:"ns_per_arrival"`
	AllocsPerArrival float64 `json:"allocs_per_arrival"`
	BytesPerArrival  float64 `json:"bytes_per_arrival"`
}

// scaleCase compares the two engines on one (workload, n) cell.
type scaleCase struct {
	Workload    string      `json:"workload"`
	N           int         `json:"n"`
	Txns        int         `json:"txns"`
	Arrivals    int         `json:"arrivals"`
	Rebuild     scaleEngine `json:"rebuild"`
	Incremental scaleEngine `json:"incremental"`
	SpeedupNs   float64     `json:"speedup_ns"`
	AllocRatio  float64     `json:"alloc_ratio"`
}

// runScaleBench times the incremental conflict-index engine against the
// per-arrival rebuild oracle on the two standard CPU workloads (greedy on a
// clique, bucket(tour) on a line) and writes per-arrival ns/allocs/bytes to
// path. The schedules themselves are pinned identical by the root
// differential test; this artifact tracks only the cost of producing them.
func runScaleBench(path string, quick bool) error {
	measure := func(in *core.Instance, mk func() sched.Scheduler) (scaleEngine, error) {
		arrivals := float64(len(in.ArrivalTimes()))
		run := func() error {
			_, err := sched.Run(in, mk(), sched.Options{SnapshotEvery: -1})
			return err
		}
		// Warm up once (shortest-path tree caches, pooled scratch, heap
		// growth), then time whole runs and keep the fastest iteration:
		// the minimum is far more robust against scheduler noise and GC
		// pauses than the mean on a busy machine, and any perturbation
		// only ever makes a run slower.
		if err := run(); err != nil {
			return scaleEngine{}, err
		}
		const (
			minIters  = 5
			maxIters  = 200
			timeSlice = 2 * time.Second
		)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		best := time.Duration(1<<63 - 1)
		iters := 0
		for begin := time.Now(); iters < minIters || (time.Since(begin) < timeSlice && iters < maxIters); iters++ {
			start := time.Now()
			if err := run(); err != nil {
				return scaleEngine{}, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		runtime.ReadMemStats(&ms1)
		return scaleEngine{
			NsPerArrival:     float64(best.Nanoseconds()) / arrivals,
			AllocsPerArrival: float64(ms1.Mallocs-ms0.Mallocs) / float64(iters) / arrivals,
			BytesPerArrival:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters) / arrivals,
		}, nil
	}
	ns := []int{64, 256, 1024}
	if quick {
		ns = []int{64, 256}
	}
	var cases []scaleCase
	for _, n := range ns {
		clique, err := graph.Clique(n)
		if err != nil {
			return err
		}
		greedyIn, err := workload.Generate(clique, workload.Config{
			K: 3, NumObjects: n, Rounds: 3,
			Arrival: workload.ArrivalPeriodic, Period: 2, Seed: 1,
		})
		if err != nil {
			return err
		}
		line, err := graph.Line(n)
		if err != nil {
			return err
		}
		bucketIn, err := workload.Generate(line, workload.Config{
			K: 2, NumObjects: n / 2, Rounds: 2,
			Arrival: workload.ArrivalPeriodic, Period: core.Time(n), Seed: 1,
		})
		if err != nil {
			return err
		}
		cells := []struct {
			name string
			in   *core.Instance
			mk   func(rebuild bool) sched.Scheduler
		}{
			{"greedy-clique", greedyIn, func(r bool) sched.Scheduler {
				return engine.NewGreedy(greedy.Options{EngineOptions: sched.EngineOptions{RebuildOracle: r}})
			}},
			{"bucket-tour-line", bucketIn, func(r bool) sched.Scheduler {
				return engine.NewBucket(bucket.Options{Batch: batch.Tour{}, EngineOptions: sched.EngineOptions{RebuildOracle: r}})
			}},
			{"bucket-coloring-line", bucketIn, func(r bool) sched.Scheduler {
				return engine.NewBucket(bucket.Options{Batch: batch.Coloring{}, EngineOptions: sched.EngineOptions{RebuildOracle: r}})
			}},
		}
		for _, c := range cells {
			c := c
			fmt.Fprintf(os.Stderr, "dtmbench: scale %s n=%d...\n", c.name, n)
			reb, err := measure(c.in, func() sched.Scheduler { return c.mk(true) })
			if err != nil {
				return err
			}
			inc, err := measure(c.in, func() sched.Scheduler { return c.mk(false) })
			if err != nil {
				return err
			}
			sc := scaleCase{
				Workload:    c.name,
				N:           n,
				Txns:        len(c.in.Txns),
				Arrivals:    len(c.in.ArrivalTimes()),
				Rebuild:     reb,
				Incremental: inc,
			}
			if sc.Incremental.NsPerArrival > 0 {
				sc.SpeedupNs = sc.Rebuild.NsPerArrival / sc.Incremental.NsPerArrival
			}
			if sc.Rebuild.AllocsPerArrival > 0 {
				sc.AllocRatio = sc.Incremental.AllocsPerArrival / sc.Rebuild.AllocsPerArrival
			}
			fmt.Fprintf(os.Stderr, "dtmbench:   rebuild %.0f ns/arrival, incremental %.0f ns/arrival (%.2fx), allocs %.1f -> %.1f\n",
				sc.Rebuild.NsPerArrival, sc.Incremental.NsPerArrival, sc.SpeedupNs,
				sc.Rebuild.AllocsPerArrival, sc.Incremental.AllocsPerArrival)
			cases = append(cases, sc)
		}
	}
	report := struct {
		Quick bool        `json:"quick"`
		Cases []scaleCase `json:"cases"`
	}{Quick: quick, Cases: cases}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dtmbench: %d scale cases written to %s\n", len(cases), path)
	return nil
}

// parVariant is one parallel-width measurement of a parRow.
type parVariant struct {
	Workers int     `json:"workers"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup"`
}

// parRow compares a sequential run against runs with the concurrent tree
// warm-up on one (engine, topology, n) cell.
type parRow struct {
	Engine     string       `json:"engine"`
	Topology   string       `json:"topology"`
	N          int          `json:"n"`
	Txns       int          `json:"txns"`
	SeqSeconds float64      `json:"seq_seconds"`
	Parallel   []parVariant `json:"parallel"`
	Identical  bool         `json:"identical"`
}

// runParBench times large single runs (n=4096 quick; -quick off adds
// n=16384) sequentially and with SimOptions.Parallel at P in {2,4,8},
// where core.NewSim first builds every shortest-path tree concurrently
// (the tree warm-up) and the run itself stays sequential. It asserts the
// externalized outputs (decision log + final Result) are byte-identical
// across all widths, and writes min-of-runs wall-clock plus speedups to
// path.
//
// Every timed iteration builds a fresh graph: building the trees is the
// work the warm-up parallelizes, so letting them persist across
// iterations would time only the sequential residue. Workload generation
// is deterministic per seed, so each iteration replays the same instance.
func runParBench(path string, quick bool) error {
	type rowDef struct {
		engine, topology string
		n                int
		mkGraph          func() (*graph.Graph, error)
		cfg              workload.Config
		mkSched          func() sched.Scheduler // nil: replay the greedy decision log
	}
	type size struct{ n, side int }
	sizes := []size{{4096, 64}}
	if !quick {
		sizes = append(sizes, size{16384, 128})
	}
	var defs []rowDef
	for _, sz := range sizes {
		sz := sz
		gridFn := func() (*graph.Graph, error) { return graph.Grid(sz.side, sz.side) }
		lineFn := func() (*graph.Graph, error) { return graph.Line(sz.n) }
		gridName := fmt.Sprintf("grid(%d,%d)", sz.side, sz.side)
		greedyCfg := workload.Config{
			K: 2, NumObjects: sz.n / 8, Rounds: 1,
			Arrival: workload.ArrivalBatch, Seed: 1,
		}
		defs = append(defs,
			rowDef{"greedy", gridName, sz.n, gridFn, greedyCfg,
				func() sched.Scheduler { return engine.NewGreedy(greedy.Options{}) }},
			rowDef{"bucket-tour", fmt.Sprintf("line(%d)", sz.n), sz.n, lineFn,
				workload.Config{
					K: 2, NumObjects: sz.n / 2, Rounds: 1,
					Arrival: workload.ArrivalBatch, Seed: 1,
				},
				func() sched.Scheduler { return engine.NewBucket(bucket.Options{Batch: batch.Tour{}}) }},
			rowDef{"replay-greedy", gridName, sz.n, gridFn, greedyCfg, nil},
		)
	}
	widths := []int{2, 4, 8}
	var rows []parRow
	for _, def := range defs {
		def := def
		// For the replay row, capture the greedy decision log once from an
		// untimed sequential run; the timed runs then drive the raw engine
		// with no scheduler in the loop.
		var decisions []core.Decision
		if def.mkSched == nil {
			g, err := def.mkGraph()
			if err != nil {
				return err
			}
			in, err := workload.Generate(g, def.cfg)
			if err != nil {
				return err
			}
			rr, err := sched.Run(in, engine.NewGreedy(greedy.Options{}), sched.Options{SnapshotEvery: -1})
			if err != nil {
				return err
			}
			decisions = rr.Decisions
		}
		// One iteration: fresh graph (cold tree caches), deterministic
		// instance, one full run. Returns the run's externalized bytes for
		// the cross-width identity check.
		iter := func(parallel int) ([]byte, time.Duration, error) {
			g, err := def.mkGraph()
			if err != nil {
				return nil, 0, err
			}
			in, err := workload.Generate(g, def.cfg)
			if err != nil {
				return nil, 0, err
			}
			var out interface{}
			start := time.Now()
			if def.mkSched != nil {
				rr, err := sched.Run(in, def.mkSched(), sched.Options{
					SnapshotEvery: -1,
					Sim:           core.SimOptions{Parallel: parallel},
				})
				if err != nil {
					return nil, 0, err
				}
				out = struct {
					Decisions []core.Decision
					Result    *core.Result
				}{rr.Decisions, rr.Result}
			} else {
				res, err := core.Replay(in, decisions, core.SimOptions{Parallel: parallel})
				if err != nil {
					return nil, 0, err
				}
				out = res
			}
			d := time.Since(start)
			data, err := json.Marshal(out)
			return data, d, err
		}
		// Min-of-runs: one untimed run (pools, heap growth — trees are rebuilt
		// cold every iteration regardless), then keep the fastest of a
		// small fixed budget per width.
		measure := func(parallel int) ([]byte, time.Duration, error) {
			if _, _, err := iter(parallel); err != nil {
				return nil, 0, err
			}
			const (
				minIters  = 3
				maxIters  = 20
				timeSlice = 2 * time.Second
			)
			best := time.Duration(1<<63 - 1)
			var out []byte
			for begin, iters := time.Now(), 0; iters < minIters ||
				(time.Since(begin) < timeSlice && iters < maxIters); iters++ {
				data, d, err := iter(parallel)
				if err != nil {
					return nil, 0, err
				}
				if d < best {
					best = d
				}
				out = data
			}
			return out, best, nil
		}
		fmt.Fprintf(os.Stderr, "dtmbench: par %s/%s n=%d sequential...\n", def.engine, def.topology, def.n)
		seqOut, seqBest, err := measure(0)
		if err != nil {
			return err
		}
		row := parRow{
			Engine: def.engine, Topology: def.topology, N: def.n,
			SeqSeconds: seqBest.Seconds(), Identical: true,
		}
		{
			g, err := def.mkGraph()
			if err != nil {
				return err
			}
			in, err := workload.Generate(g, def.cfg)
			if err != nil {
				return err
			}
			row.Txns = len(in.Txns)
		}
		for _, p := range widths {
			parOut, parBest, err := measure(p)
			if err != nil {
				return err
			}
			v := parVariant{Workers: p, Seconds: parBest.Seconds()}
			if parBest > 0 {
				v.Speedup = seqBest.Seconds() / parBest.Seconds()
			}
			if !bytes.Equal(seqOut, parOut) {
				row.Identical = false
			}
			fmt.Fprintf(os.Stderr, "dtmbench:   P=%d %s (%.2fx)\n", p, parBest, v.Speedup)
			row.Parallel = append(row.Parallel, v)
		}
		if !row.Identical {
			return fmt.Errorf("par bench %s/%s n=%d: parallel output differs from sequential",
				def.engine, def.topology, def.n)
		}
		rows = append(rows, row)
	}
	procs := runtime.GOMAXPROCS(0)
	report := struct {
		// Procs and Note lead the artifact so a single-core run is
		// self-describing: speedup columns from a GOMAXPROCS=1 container
		// measure only the warm-up's overhead, never its win.
		Procs int      `json:"procs"`
		Note  string   `json:"note,omitempty"`
		Quick bool     `json:"quick"`
		Rows  []parRow `json:"rows"`
	}{Quick: quick, Procs: procs, Rows: rows}
	if procs == 1 {
		report.Note = "single-core run (GOMAXPROCS=1): parallel widths share one CPU, so speedups reflect engine overhead only — rerun on multi-core hardware for real curves"
		fmt.Fprintf(os.Stderr, "dtmbench: WARNING: %s\n", report.Note)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dtmbench: %d tree warm-up rows written to %s\n", len(rows), path)
	return nil
}

// runBench runs the full suite twice — sequentially (workers=1) and on the
// default pool (workers=0 → GOMAXPROCS) — checks the rendered outputs are
// byte-identical, and writes wall-clock timings to path.
func runBench(path string, quick bool, seed int64) error {
	runAll := func(workers int) ([]byte, time.Duration, error) {
		var buf bytes.Buffer
		start := time.Now()
		for _, e := range experiments.All {
			if err := runOne(&buf, e, quick, seed, false, false, workers); err != nil {
				return nil, 0, err
			}
		}
		return buf.Bytes(), time.Since(start), nil
	}
	fmt.Fprintln(os.Stderr, "dtmbench: running all experiments sequentially (-parallel 1)...")
	seqOut, seqDur, err := runAll(1)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dtmbench: sequential pass took %s; running in parallel (-parallel 0)...\n", seqDur)
	parOut, parDur, err := runAll(0)
	if err != nil {
		return err
	}
	identical := bytes.Equal(seqOut, parOut)
	report := struct {
		Quick      bool    `json:"quick"`
		Workers    int     `json:"workers"`
		SeqSeconds float64 `json:"seq_seconds"`
		ParSeconds float64 `json:"par_seconds"`
		Speedup    float64 `json:"speedup"`
		Identical  bool    `json:"identical"`
	}{
		Quick:      quick,
		Workers:    runtime.GOMAXPROCS(0),
		SeqSeconds: seqDur.Seconds(),
		ParSeconds: parDur.Seconds(),
		Speedup:    seqDur.Seconds() / parDur.Seconds(),
		Identical:  identical,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dtmbench: parallel pass took %s (%.2fx, %d workers); report written to %s\n",
		parDur, report.Speedup, report.Workers, path)
	if !identical {
		return fmt.Errorf("sequential and parallel outputs differ (%d vs %d bytes)", len(seqOut), len(parOut))
	}
	return nil
}
