// Package engine is the scheduler-engine registry: one table of the repo's
// scheduling algorithms with their default options. Every front end — the
// dtm facade, cmd/dtmsim, cmd/dtmbench, the experiments, and the root
// conformance/differential/parallel test suites — resolves engines here by
// ID (engine.ByID) or enumerates them (engine.All, filtered on Oracle and
// Stream), so adding an engine means adding one Desc to the table below and
// every harness picks it up.
//
// Option-variant construction (a padded greedy, a custom window seed, a
// faulty network for the protocol) calls the engine package's own
// constructor (greedy.New, greedy.NewCoordinator, bucket.New, window.New,
// distbucket.New), so feature knobs need no registry ID.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/distbucket"
	"dtm/internal/greedy"
	"dtm/internal/sched"
	"dtm/internal/window"
)

// Desc describes one registered engine.
type Desc struct {
	// ID is the canonical engine name, as accepted by dtmsim -sched.
	ID string
	// Aliases are accepted alternate spellings of ID.
	Aliases []string
	// Doc is a one-line description for -sched list.
	Doc string
	// New constructs the engine with default options.
	New func() sched.Scheduler
	// Oracle, when non-nil, constructs the engine's from-scratch rebuild
	// oracle: the reference implementation of the paper's algorithm that
	// the differential suites pin byte-identical to New's incremental
	// engine.
	Oracle func() sched.Scheduler
	// Stream marks engines safe under the bounded-memory streaming driver
	// (sched.RunStream): decisions never depend on retired history, and
	// live state stays proportional to the in-flight window.
	Stream bool
}

// registry is the engine table, in presentation order (Algorithm 1
// variants, Algorithm 2 variants, Algorithm W, the Section V protocol).
var registry = []Desc{
	{
		ID:     "greedy",
		Doc:    "Algorithm 1: online greedy coloring of the dependency graph (Theorem 1)",
		New:    func() sched.Scheduler { return greedy.New(greedy.Options{}) },
		Oracle: func() sched.Scheduler { return greedy.New(greedy.Options{RebuildOracle: true}) },
		Stream: true,
	},
	{
		ID:     "greedy-uniform",
		Doc:    "Algorithm 1, Theorem 2 mode: uniform overlay weights, epoch-quantized decisions",
		New:    func() sched.Scheduler { return greedy.New(greedy.Options{Uniform: true}) },
		Oracle: func() sched.Scheduler { return greedy.New(greedy.Options{Uniform: true, RebuildOracle: true}) },
		Stream: true,
	},
	{
		ID:     "coordinator",
		Doc:    "Section III-E hub coordinator: decisions funnel through node 0, floored by the round trip",
		New:    func() sched.Scheduler { return greedy.NewCoordinator(0, greedy.Options{}) },
		Oracle: func() sched.Scheduler { return greedy.NewCoordinator(0, greedy.Options{RebuildOracle: true}) },
		Stream: true,
	},
	{
		ID:      "bucket-tour",
		Aliases: []string{"bucket"},
		Doc:     "Algorithm 2 over the MST Euler-tour batch scheduler (Theorem 4)",
		New:     func() sched.Scheduler { return bucket.New(bucket.Options{Batch: batch.Tour{}}) },
		Oracle:  func() sched.Scheduler { return bucket.New(bucket.Options{Batch: batch.Tour{}, RebuildOracle: true}) },
		Stream:  true,
	},
	{
		ID:  "bucket-coloring",
		Doc: "Algorithm 2 over the weighted-coloring batch scheduler",
		New: func() sched.Scheduler { return bucket.New(bucket.Options{Batch: batch.Coloring{}}) },
		Oracle: func() sched.Scheduler {
			return bucket.New(bucket.Options{Batch: batch.Coloring{}, RebuildOracle: true})
		},
		Stream: true,
	},
	{
		ID:     "bucket-list",
		Doc:    "Algorithm 2 over the list-scheduling batch scheduler",
		New:    func() sched.Scheduler { return bucket.New(bucket.Options{Batch: batch.List{}}) },
		Oracle: func() sched.Scheduler { return bucket.New(bucket.Options{Batch: batch.List{}, RebuildOracle: true}) },
		Stream: true,
	},
	{
		ID:     "window",
		Doc:    "Algorithm W: randomized window-based greedy contention management (Sharma/Estrade/Busch)",
		New:    func() sched.Scheduler { return window.New(window.Options{}) },
		Stream: true,
	},
	{
		ID:      "distributed",
		Aliases: []string{"distbucket"},
		Doc:     "Algorithm 3: decentralized bucket protocol over the sparse cover, objects at half speed (Theorem 5)",
		New:     func() sched.Scheduler { return distbucket.New(distbucket.Options{}) },
	},
}

// All returns the registered engines in presentation order. The returned
// slice is a copy; mutating it cannot corrupt the registry.
func All() []Desc {
	return append([]Desc(nil), registry...)
}

// ByID resolves an engine by ID or alias, case-insensitively.
func ByID(id string) (Desc, bool) {
	for _, d := range registry {
		if strings.EqualFold(d.ID, id) {
			return d, true
		}
		for _, a := range d.Aliases {
			if strings.EqualFold(a, id) {
				return d, true
			}
		}
	}
	return Desc{}, false
}

// Names returns every accepted spelling (IDs and aliases), sorted — the
// "unknown engine" error hint.
func Names() []string {
	var ns []string
	for _, d := range registry {
		ns = append(ns, d.ID)
		ns = append(ns, d.Aliases...)
	}
	sort.Strings(ns)
	return ns
}

// Default constructs the engine registered under id with default options,
// erroring on unknown IDs.
func Default(id string) (sched.Scheduler, error) {
	d, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (have %s)", id, strings.Join(Names(), ", "))
	}
	return d.New(), nil
}
