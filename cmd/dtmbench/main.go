// Command dtmbench regenerates the constructed evaluation of DESIGN.md §5,
// every table and figure backing the paper's claims, and times the engines
// on a fixed case table.
//
//	dtmbench -list                 # show all experiments (engines: dtmsim -sched list)
//	dtmbench -exp F1               # regenerate one
//	dtmbench -exp all              # regenerate everything
//	dtmbench -exp F5 -csv          # machine-readable output
//	dtmbench -exp all -parallel 1  # force sequential trial execution
//	dtmbench -exp t11              # fault-injection sweep (IDs are case-insensitive)
//	dtmbench -exp T11 -quick -json BENCH_faults.json  # one table as a JSON artifact
//	dtmbench -perfjson BENCH_perf.json                # timing rows, outputs checked identical
//
// -list, -exp and -perfjson select the mode and are mutually exclusive;
// -json needs one experiment ID and excludes -csv.
//
// Trials within each experiment run on the internal/runner worker pool.
// -parallel selects the pool size: 0 (default) uses GOMAXPROCS, 1 runs
// sequentially, N>1 uses N workers. Output tables are byte-identical for
// every setting.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"dtm"
	"dtm/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args and runs the selected mode. It returns the exit code:
// 0 on success, 1 if the mode fails, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dtmbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiments")
		exp      = fs.String("exp", "", "experiment ID to run (e.g. F1, T3, or 'all')")
		quick    = fs.Bool("quick", false, "smaller experiment sweeps")
		seed     = fs.Int64("seed", 42, "random seed")
		csv      = fs.Bool("csv", false, "emit CSV")
		metrics  = fs.Bool("metrics", false, "print a JSON metrics report per experiment")
		parallel = fs.Int("parallel", 0, "trial worker pool size (0 = GOMAXPROCS, 1 = sequential)")
		jsonPath = fs.String("json", "", "write the -exp table as JSON to FILE")
		perfjson = fs.String("perfjson", "", "time the benchmark case table, check outputs identical, write rows as JSON to FILE")
	)
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "dtmbench:", msg)
		fs.Usage()
		return 2
	}
	modes := 0
	for _, on := range []bool{*list, *exp != "", *perfjson != ""} {
		if on {
			modes++
		}
	}
	switch {
	case modes == 0:
		return usage("choose one of -list, -exp or -perfjson")
	case modes > 1:
		return usage("-list, -exp and -perfjson are mutually exclusive")
	case *jsonPath != "" && (*exp == "" || *exp == "all" || *exp == "list"):
		return usage("-json needs exactly one -exp ID")
	case *jsonPath != "" && *csv:
		return usage("-csv and -json are mutually exclusive")
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, Workers: *parallel}
	var err error
	switch {
	case *list, *exp == "list":
		printList(stdout)
	case *perfjson != "":
		var cases []perfCase
		if cases, err = perfCases(); err == nil {
			err = writePerf(*perfjson, cases, stderr)
		}
	case *exp == "all":
		for _, e := range experiments.All {
			if err = runExp(stdout, e, cfg, *csv, *metrics, ""); err != nil {
				break
			}
		}
	default:
		e, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "dtmbench: unknown experiment %q (use -list)\n", *exp)
			return 1
		}
		err = runExp(stdout, e, cfg, *csv, *metrics, *jsonPath)
	}
	if err != nil {
		fmt.Fprintln(stderr, "dtmbench:", err)
		return 1
	}
	return 0
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "experiments:")
	for _, e := range experiments.All {
		fmt.Fprintf(w, "%-4s %s\n     claim: %s\n", e.ID, e.Title, e.Claim)
	}
	fmt.Fprintln(w, "\nengines: see dtmsim -sched list")
}

// tableReport is the -json form of one experiment table, the schema of
// BENCH_faults.json and BENCH_stream.json.
type tableReport struct {
	Experiment string     `json:"experiment"`
	Claim      string     `json:"claim"`
	Quick      bool       `json:"quick"`
	Seed       int64      `json:"seed"`
	Seconds    float64    `json:"seconds"`
	Header     []string   `json:"header"`
	Rows       [][]string `json:"rows"`
}

// runExp runs one experiment and renders its table to w, or writes it to
// jsonPath when that is set.
func runExp(w io.Writer, e experiments.Experiment, cfg experiments.Config, csv, metrics bool, jsonPath string) error {
	if metrics {
		cfg.Obs = dtm.NewMetrics()
	}
	start := time.Now()
	tb, err := e.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	if jsonPath != "" {
		err = writeJSON(jsonPath, tableReport{
			Experiment: e.ID, Claim: e.Claim, Quick: cfg.Quick, Seed: cfg.Seed,
			Seconds: time.Since(start).Seconds(), Header: tb.Headers, Rows: tb.Rows,
		})
	} else {
		fmt.Fprintf(w, "\n[%s] %s\n# claim: %s\n", e.ID, e.Title, e.Claim)
		if csv {
			err = tb.RenderCSV(w)
		} else {
			err = tb.Render(w)
		}
	}
	if err == nil && metrics {
		err = cfg.Obs.Snapshot().WriteJSON(w)
	}
	return err
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
