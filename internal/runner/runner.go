// Package runner is the declarative parallel sweep subsystem of the
// experiment harness. An experiment describes its grid once — a Sweep is
// a list of Points, each Point a set of named Cells, each Cell a factory
// producing one seeded trial — and the runner executes every
// (point, cell, trial) combination over a bounded worker pool, folding
// the outcomes into per-cell spread aggregates (stats.Sample) and one
// stats.Table row per point.
//
// Determinism is the contract, not a hope: results land in slots indexed
// by (point, cell, trial) and are aggregated in index order after the
// pool drains, so a sweep renders byte-identical tables whether it ran
// on one worker or on GOMAXPROCS. Observability folds the same way —
// each trial gets a private obs registry that is merged (commutatively)
// into the sweep's registry on completion.
//
// Failure is isolated per cell: an erroring or panicking trial records
// its error in the cell's aggregate and every sibling cell still runs;
// the point's Row callback decides whether the error becomes a table
// marker or aborts the experiment.
package runner

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"

	"dtm/internal/core"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/stats"
)

// Outcome carries the measured quantities of one seeded trial. The named
// fields are the driver metrics every experiment shares; Extra holds
// experiment-specific scalars (audit counts, stalls, message totals)
// aggregated per key.
type Outcome struct {
	MaxRatio  float64
	MeanRatio float64
	Makespan  float64
	MaxLat    float64
	MeanLat   float64
	TotalComm float64
	Extra     map[string]float64
}

// FromRunResult maps a driver result onto the standard Outcome fields.
func FromRunResult(rr *sched.RunResult) Outcome {
	return Outcome{
		MaxRatio:  rr.MaxRatio,
		MeanRatio: rr.MeanRatio(),
		Makespan:  float64(rr.Makespan),
		MaxLat:    float64(rr.MaxLat),
		MeanLat:   rr.MeanLat(),
		TotalComm: float64(rr.TotalComm),
	}
}

// CellFunc runs one seeded trial. m is the trial's private observability
// registry, never nil: the engines count what they did only there, so a
// cell reads its audit counts from m or its run's Metrics snapshot.
// Implementations must be safe to call from concurrent workers and
// deterministic in seed.
type CellFunc func(seed int64, m *obs.Metrics) (Outcome, error)

// Cell is one named series of seeded trials at a sweep point.
type Cell struct {
	Name string
	Run  CellFunc
}

// Sched adapts the canonical cell form — a factory producing a fresh
// (instance, scheduler) pair per seed — into a CellFunc driven by
// sched.Run.
func Sched(mk func(seed int64) (*core.Instance, sched.Scheduler, error)) CellFunc {
	return SchedOpts(sched.Options{}, mk)
}

// SchedOpts is Sched with explicit driver options; the runner overrides
// opts.Obs with the trial's private registry.
func SchedOpts(opts sched.Options, mk func(seed int64) (*core.Instance, sched.Scheduler, error)) CellFunc {
	return func(seed int64, m *obs.Metrics) (Outcome, error) {
		in, s, err := mk(seed)
		if err != nil {
			return Outcome{}, err
		}
		o := opts
		o.Obs = m
		rr, err := sched.Run(in, s, o)
		if err != nil {
			return Outcome{}, fmt.Errorf("%s: %w", s.Name(), err)
		}
		return FromRunResult(rr), nil
	}
}

// Agg is one cell's aggregate over its trials: a stats.Sample per
// Outcome field, computed over the successful trials in trial order.
type Agg struct {
	Name string
	// N counts the successful trials; Err is the first (by trial index)
	// error, nil when every trial succeeded.
	N   int
	Err error

	MaxRatio  stats.Sample
	MeanRatio stats.Sample
	Makespan  stats.Sample
	MaxLat    stats.Sample
	MeanLat   stats.Sample
	TotalComm stats.Sample
	Extra     map[string]stats.Sample
}

// X returns the aggregate of the named Extra scalar (zero Sample when no
// trial reported it).
func (a Agg) X(key string) stats.Sample { return a.Extra[key] }

// errMarker is what the formatting helpers render for a failed cell, so
// a broken cell shows up in its row without aborting the sweep.
const errMarker = "error"

// F2 renders v to two decimals, or the error marker when the cell failed.
func (a Agg) F2(v float64) string { return a.F("%.2f", v) }

// F1 renders v to one decimal, or the error marker when the cell failed.
func (a Agg) F1(v float64) string { return a.F("%.1f", v) }

// F renders v with the given verb, or the error marker when the cell
// failed.
func (a Agg) F(format string, v float64) string {
	if a.Err != nil {
		return errMarker
	}
	return fmt.Sprintf(format, v)
}

// Int renders the sample mean as a rounded integer (for counts measured
// once per trial), or the error marker when the cell failed.
func (a Agg) Int(s stats.Sample) string {
	if a.Err != nil {
		return errMarker
	}
	return strconv.FormatInt(int64(math.Round(s.Mean)), 10)
}

// Spread renders the sample's standard deviation as a "±" table column,
// or the error marker when the cell failed.
func (a Agg) Spread(s stats.Sample) string {
	if a.Err != nil {
		return errMarker
	}
	return fmt.Sprintf("±%.2f", s.Std)
}

// FirstErr returns the first cell error in cs, for experiments whose
// rows are claim checks and must abort on any failure.
func FirstErr(cs []Agg) error {
	for _, c := range cs {
		if c.Err != nil {
			return c.Err
		}
	}
	return nil
}

// Point is one sweep point: the cells evaluated at it and the Row
// callback that folds their aggregates into one table row. Row runs
// sequentially in point order after every cell finished; returning an
// error aborts the sweep (use it for violated invariants, not for cell
// failures, which arrive pre-recorded in Agg.Err). Points that expand
// into several table rows set Rows instead; exactly one of the two must
// be non-nil.
type Point struct {
	Cells []Cell
	Row   func(cells []Agg) ([]string, error)
	Rows  func(cells []Agg) ([][]string, error)
}

func (p Point) rows(cells []Agg) ([][]string, error) {
	if p.Rows != nil {
		return p.Rows(cells)
	}
	row, err := p.Row(cells)
	if err != nil {
		return nil, err
	}
	return [][]string{row}, nil
}

// Sweep is the declarative description of one experiment grid.
type Sweep struct {
	Points []Point
	// Trials runs every cell this many times with distinct seeds
	// (minimum 1).
	Trials int
	// Seed is the base seed; trial i runs with Seed + i*seedStride.
	Seed int64
	// Workers bounds the pool: 0 means GOMAXPROCS, 1 is sequential.
	Workers int
	// Obs, when set, accumulates metrics across every trial: each trial
	// runs against a private registry that is merged in on completion.
	Obs *obs.Metrics
}

// seedStride is the seed spacing between trials, the harness-wide
// convention.
const seedStride = 101

// slot is one trial's landing place, indexed (point, cell, trial) so
// aggregation order is independent of completion order.
type slot struct {
	out Outcome
	err error
}

// Run executes the sweep and appends one row per point to t, in point
// order. All cells run to completion regardless of sibling failures;
// the returned error is the first Row error (or a sweep misconfiguration).
func (s Sweep) Run(t *stats.Table) error {
	trials := s.Trials
	if trials < 1 {
		trials = 1
	}
	type task struct {
		p, c, tr int
		run      CellFunc
		name     string
	}
	res := make([][][]slot, len(s.Points))
	var tasks []task
	for pi, p := range s.Points {
		if (p.Row == nil) == (p.Rows == nil) {
			return fmt.Errorf("runner: point %d must set exactly one of Row and Rows", pi)
		}
		res[pi] = make([][]slot, len(p.Cells))
		for ci, c := range p.Cells {
			if c.Run == nil {
				return fmt.Errorf("runner: point %d cell %q has no Run", pi, c.Name)
			}
			res[pi][ci] = make([]slot, trials)
			for tr := 0; tr < trials; tr++ {
				tasks = append(tasks, task{p: pi, c: ci, tr: tr, run: c.Run, name: c.Name})
			}
		}
	}
	workers := s.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if len(tasks) > 0 {
		ch := make(chan task)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for tk := range ch {
					cm := obs.New()
					out, err := runCell(tk.run, tk.name, s.Seed+int64(tk.tr)*seedStride, cm)
					if s.Obs != nil {
						if merr := s.Obs.Merge(cm.Snapshot()); err == nil {
							err = merr
						}
					}
					res[tk.p][tk.c][tk.tr] = slot{out: out, err: err}
				}
			}()
		}
		for _, tk := range tasks {
			ch <- tk
		}
		close(ch)
		wg.Wait()
	}
	for pi, p := range s.Points {
		aggs := make([]Agg, len(p.Cells))
		for ci, c := range p.Cells {
			aggs[ci] = aggregate(c.Name, res[pi][ci])
		}
		rows, err := p.rows(aggs)
		if err != nil {
			return err
		}
		for _, row := range rows {
			t.AddRow(row...)
		}
	}
	return nil
}

// runCell invokes one trial, converting a panic into a recorded error so
// one exploding cell cannot take down the worker pool.
func runCell(run CellFunc, name string, seed int64, m *obs.Metrics) (out Outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: cell %q (seed %d) panicked: %v", name, seed, r)
		}
	}()
	return run(seed, m)
}

// aggregate folds a cell's trial slots, in trial order, into an Agg.
func aggregate(name string, slots []slot) Agg {
	a := Agg{Name: name}
	var maxR, meanR, mk, maxL, meanL, comm []float64
	extras := make(map[string][]float64)
	for _, sl := range slots {
		if sl.err != nil {
			if a.Err == nil {
				a.Err = sl.err
			}
			continue
		}
		a.N++
		maxR = append(maxR, sl.out.MaxRatio)
		meanR = append(meanR, sl.out.MeanRatio)
		mk = append(mk, sl.out.Makespan)
		maxL = append(maxL, sl.out.MaxLat)
		meanL = append(meanL, sl.out.MeanLat)
		comm = append(comm, sl.out.TotalComm)
		for k, v := range sl.out.Extra {
			extras[k] = append(extras[k], v)
		}
	}
	a.MaxRatio = stats.NewSample(maxR)
	a.MeanRatio = stats.NewSample(meanR)
	a.Makespan = stats.NewSample(mk)
	a.MaxLat = stats.NewSample(maxL)
	a.MeanLat = stats.NewSample(meanL)
	a.TotalComm = stats.NewSample(comm)
	if len(extras) > 0 {
		a.Extra = make(map[string]stats.Sample, len(extras))
		for k, xs := range extras {
			a.Extra[k] = stats.NewSample(xs)
		}
	}
	return a
}
