// Command dtmtrace inspects and re-validates run traces written by dtmsim
// -trace: the decision log is replayed through the execution engine, so a
// trace that validates is a machine-checked proof that the recorded
// schedule was feasible.
//
//	dtmtrace -validate run.json
//	dtmtrace -timeline run.json     # per-object itineraries
//	dtmtrace -summary run.json
package main

import (
	"flag"
	"fmt"
	"os"

	"dtm/internal/trace"
)

func main() {
	var (
		validate = flag.Bool("validate", false, "replay the decision log and verify feasibility + recorded makespan")
		timeline = flag.Bool("timeline", false, "print per-object itineraries")
		summary  = flag.Bool("summary", false, "print run metadata")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dtmtrace [-validate] [-timeline] [-summary] <trace.json>")
		os.Exit(2)
	}
	if !*validate && !*timeline && !*summary {
		*validate, *summary = true, true
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	r, err := trace.Read(f)
	if err != nil {
		fatal(err)
	}
	if *summary {
		fmt.Printf("topology:   %s (%d nodes, %d edges)\n", r.Topology, r.Nodes, len(r.Edges))
		fmt.Printf("workload:   %d transactions over %d objects\n", len(r.Txns), len(r.Objects))
		fmt.Printf("scheduler:  %s\n", r.Scheduler)
		fmt.Printf("makespan:   %d   max latency: %d   total comm: %d   max ratio: %.2f\n",
			r.Makespan, r.MaxLat, r.TotalComm, r.MaxRatio)
	}
	if *validate {
		if err := r.Validate(); err != nil {
			fatal(err)
		}
		fmt.Println("validate:   schedule replays cleanly; recorded makespan confirmed ✓")
	}
	if *timeline {
		tl, err := r.Timeline()
		if err != nil {
			fatal(err)
		}
		fmt.Print(tl)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dtmtrace:", err)
	os.Exit(1)
}
