package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"dtm"
)

// workload is one named set of inputs and the facade entry point that runs
// them. Stream workloads pre-generate their arrivals during set-up and
// replay them into dtm.RunStream, so the timed region holds no generator
// work; the finite workload generates one instance and runs it through
// dtm.Run with a ratio snapshot at every arrival time.
type workload struct {
	name     string
	engine   string // engine registry ID
	parallel int    // SimOptions.Parallel
	graph    func() (*dtm.Graph, error)

	// Stream workloads: the seeded source's configuration (its object
	// count also sizes dtm.UniformObjects), whether the source is bursty
	// rather than Poisson, and the number of arrivals pulled from it.
	streamCfg *dtm.StreamConfig
	bursty    bool
	arrivals  int

	// Finite workload: the instance generator's configuration.
	finiteCfg *dtm.WorkloadConfig
}

// Sizes shared by the workloads; NOTES.md records why each was chosen.
const (
	// ratioSnapshots caps the ratio snapshots of the finite run a stream
	// workload's max_ratio is measured on.
	ratioSnapshots = 1024
	// warmArrivals is the size of the pool-warming run in set-up.
	warmArrivals = 512
)

func grid32() (*dtm.Graph, error) { return dtm.Grid(32, 32) }

var workloads = []*workload{
	{
		name:     "stream-greedy",
		engine:   "greedy",
		parallel: 1,
		graph:    grid32,
		streamCfg: &dtm.StreamConfig{
			K: 2, NumObjects: 1024, Rate: 1, Pop: dtm.PopZipf, ZipfS: 1.1,
		},
		arrivals: 48000,
	},
	{
		name:     "stream-bucket",
		engine:   "bucket-tour",
		parallel: 1,
		graph:    func() (*dtm.Graph, error) { return dtm.Line(128) },
		streamCfg: &dtm.StreamConfig{
			K: 2, NumObjects: 128, Rate: 1, Pop: dtm.PopUniform,
		},
		arrivals: 16000,
	},
	{
		name:     "burst-greedy-p2",
		engine:   "greedy",
		parallel: 2,
		graph:    grid32,
		streamCfg: &dtm.StreamConfig{
			K: 2, NumObjects: 1024, Rate: 3, Burst: 128,
			Pop: dtm.PopHotspot, HotFrac: 0.8, HotSetSize: 64,
		},
		bursty:   true,
		arrivals: 40960,
	},
	{
		name:     "ratio-window",
		engine:   "window",
		parallel: 1,
		graph:    grid32,
		finiteCfg: &dtm.WorkloadConfig{
			K: 2, NumObjects: 1024, Rounds: 16, Arrival: dtm.ArrivalPoisson, Period: 8,
		},
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func (w *workload) stream() bool { return w.streamCfg != nil }

// source returns the stream workload's seeded source at the given rate.
func (w *workload) source(g *dtm.Graph, seed int64, rate float64) (dtm.Source, error) {
	cfg := *w.streamCfg
	cfg.Seed, cfg.Rate = seed, rate
	if w.bursty {
		return dtm.NewBurstySource(g, cfg)
	}
	return dtm.NewPoissonSource(g, cfg)
}

// input is what set-up hands the timed region.
type input struct {
	g        *dtm.Graph
	objects  []*dtm.Object       // stream workloads
	arrivals []dtm.SourceArrival // stream workloads
	inst     *dtm.Instance       // finite workload
	n        int                 // arrivals per run
}

// setupTimes splits one set-up into its phases.
type setupTimes struct {
	graphWarm time.Duration // topology build plus every shortest-path tree
	gen       time.Duration // input generation
	pools     time.Duration // a short run that fills the scratch pools
}

func (st setupTimes) total() time.Duration { return st.graphWarm + st.gen + st.pools }

// setup builds the topology, warms its shortest-path trees, generates the
// inputs from seed, and fills the engine's pools with a short run. With a
// recorder each phase is a span under a set-up span.
func (w *workload) setup(seed int64, rec *recorder) (*input, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	g, err := w.graph()
	if err != nil {
		return nil, st, err
	}
	g.Diameter() // builds the shortest-path tree of every node
	t1 := time.Now()
	in := &input{g: g}
	var warm *input
	if w.stream() {
		src, err := w.source(g, seed, w.streamCfg.Rate)
		if err != nil {
			return nil, st, err
		}
		in.objects = dtm.UniformObjects(g, w.streamCfg.NumObjects, seed)
		in.arrivals = make([]dtm.SourceArrival, 0, w.arrivals)
		for len(in.arrivals) < w.arrivals {
			a, ok := src.Next()
			if !ok {
				return nil, st, fmt.Errorf("%s: source exhausted after %d arrivals", w.name, len(in.arrivals))
			}
			in.arrivals = append(in.arrivals, a)
		}
		in.n = len(in.arrivals)
		warm = &input{g: g, objects: in.objects, arrivals: in.arrivals[:warmArrivals], n: warmArrivals}
	} else {
		cfg := *w.finiteCfg
		cfg.Seed = seed
		if in.inst, err = dtm.Generate(g, cfg); err != nil {
			return nil, st, err
		}
		in.n = len(in.inst.Txns)
		head := &dtm.Instance{G: g, Objects: in.inst.Objects, Txns: in.inst.Txns[:warmArrivals]}
		warm = &input{g: g, inst: head, n: warmArrivals}
	}
	t2 := time.Now()
	if _, err := w.run(warm, nil, w.parallel); err != nil {
		return nil, st, fmt.Errorf("%s: warm-up run: %w", w.name, err)
	}
	t3 := time.Now()
	if rec != nil {
		root := rec.open(spanSetup, -1, t0)
		rec.add(spanGraphWarm, root, t0, t1)
		rec.add(spanWorkloadGen, root, t1, t2)
		rec.add(spanPoolWarm, root, t2, t3)
		rec.close(root, t3)
	}
	st = setupTimes{graphWarm: t1.Sub(t0), gen: t2.Sub(t1), pools: t3.Sub(t2)}
	return in, st, nil
}

// instanceOf builds a finite instance from arrivals, with dense IDs in
// arrival order.
func instanceOf(g *dtm.Graph, objects []*dtm.Object, arr []dtm.SourceArrival) *dtm.Instance {
	in := &dtm.Instance{G: g, Objects: objects, Txns: make([]*dtm.Transaction, len(arr))}
	for i, a := range arr {
		in.Txns[i] = &dtm.Transaction{ID: dtm.TxID(i), Node: a.Node, Arrival: a.At, Objects: a.Objects}
	}
	return in
}

// sliceSource replays pre-generated arrivals.
type sliceSource struct {
	arr []dtm.SourceArrival
	i   int
}

func (s *sliceSource) Next() (dtm.SourceArrival, bool) {
	if s.i >= len(s.arr) {
		return dtm.SourceArrival{}, false
	}
	a := s.arr[s.i]
	s.i++
	return a, true
}

// quality is a run's schedule: exact and fixed for a given seed, so every
// run of one input must produce the same value.
type quality struct {
	Arrivals    int64
	Completed   int64
	Makespan    dtm.Time
	MeanSojourn float64
	QueuePeak   int64
	QueueFirst  int64 // queue peak over the first half of the deliveries
	QueueSecond int64 // ... and over the second half
	WindowPeak  int64 // stream workloads: live Sim window peak
	TotalComm   dtm.Weight
	MaxRatio    float64 // finite workload only
	Digest      uint64  // finite workload: hash of the decision log
}

// runResult is one run through the facade.
type runResult struct {
	wall      time.Duration
	mallocs   uint64 // heap allocations during the facade call
	bytes     uint64 // heap bytes allocated during the facade call
	span      int    // run span index, -1 when untraced
	q         quality
	metrics   *dtm.MetricsSnapshot
	decisions []dtm.Decision // finite workload
	latency   []dtm.Time     // finite workload
}

// run executes the workload's inputs once through the facade with a fresh
// registry engine and checks the correctness gate; the returned error
// names the first gate that failed. Only the facade call is timed and
// counted. With a recorder the call is a run span and the engine is
// wrapped so that each of its callbacks is a child span.
func (w *workload) run(in *input, rec *recorder, parallel int) (*runResult, error) {
	s, err := dtm.NewEngine(w.engine)
	if err != nil {
		return nil, err
	}
	m := dtm.NewMetrics()
	sim := dtm.SimOptions{Parallel: parallel}
	var r runResult
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	r.span = -1
	if rec != nil {
		r.span = rec.open(spanRun, -1, t0)
		s = timed(s, rec, r.span)
	}
	var res *dtm.StreamResult
	var rr *dtm.RunResult
	if w.stream() {
		res, err = dtm.RunStream(in.g, in.objects, &sliceSource{arr: in.arrivals}, s,
			dtm.StreamOptions{Sim: sim, Obs: m})
	} else {
		rr, err = dtm.Run(in.inst, s, dtm.RunOptions{Sim: sim, Obs: m})
	}
	t1 := time.Now()
	if rec != nil {
		rec.close(r.span, t1)
	}
	runtime.ReadMemStats(&after)
	r.wall = t1.Sub(t0)
	r.mallocs = after.Mallocs - before.Mallocs
	r.bytes = after.TotalAlloc - before.TotalAlloc
	if err != nil {
		return nil, err
	}
	if w.stream() {
		if res.Failed {
			return nil, fmt.Errorf("run failed: %v", res.Err)
		}
		r.metrics = res.Metrics
		r.q = quality{
			Arrivals: res.Arrivals, Completed: res.Completed, Makespan: res.Makespan,
			MeanSojourn: res.MeanSojourn, QueuePeak: res.QueuePeak,
			QueueFirst: res.QueuePeakFirstHalf, QueueSecond: res.QueuePeakSecondHalf,
			WindowPeak: res.WindowPeak, TotalComm: res.TotalComm,
		}
	} else {
		if rr.Failed {
			return nil, fmt.Errorf("run failed: %v", rr.Err)
		}
		r.metrics = rr.Metrics
		r.decisions = rr.Decisions
		r.latency = rr.Latency
		peak, first, second := queuePeaks(in.inst, rr.Latency)
		r.q = quality{
			Arrivals: int64(len(in.inst.Txns)), Completed: r.metrics.Counters["core.commits"],
			Makespan: rr.Makespan, MeanSojourn: rr.MeanLat(),
			QueuePeak: peak, QueueFirst: first, QueueSecond: second,
			TotalComm: rr.TotalComm, MaxRatio: rr.MaxRatio, Digest: digest(rr.Decisions),
		}
	}
	if r.q.Arrivals != int64(in.n) || r.q.Completed != r.q.Arrivals {
		return &r, fmt.Errorf("%d of %d arrivals committed", r.q.Completed, in.n)
	}
	if v := r.metrics.Counters["core.violations"]; v != 0 {
		return &r, fmt.Errorf("core.violations = %d", v)
	}
	return &r, nil
}

// queuePeaks samples the queue (arrived minus committed) at every distinct
// arrival time after that time's commits, as dtm.RunStream does after
// each delivered batch, and returns its peak overall and over the first
// and second half of the samples.
func queuePeaks(in *dtm.Instance, latency []dtm.Time) (peak, first, second int64) {
	arr := make([]dtm.Time, len(in.Txns))
	done := make([]dtm.Time, len(in.Txns))
	for i, tx := range in.Txns {
		arr[i] = tx.Arrival
		done[i] = tx.Arrival + latency[i]
	}
	sort.Slice(arr, func(i, j int) bool { return arr[i] < arr[j] })
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	var samples []int64
	d := 0
	for a := 0; a < len(arr); {
		t := arr[a]
		for a < len(arr) && arr[a] == t {
			a++
		}
		for d < len(done) && done[d] <= t {
			d++
		}
		samples = append(samples, int64(a-d))
	}
	mid := (len(samples) + 1) / 2
	for i, q := range samples {
		peak = max(peak, q)
		if i < mid {
			first = max(first, q)
		} else {
			second = max(second, q)
		}
	}
	if len(samples) == 1 {
		second = first
	}
	return peak, first, second
}

// digest hashes a decision log.
func digest(decs []dtm.Decision) uint64 {
	h := fnv.New64a()
	for _, d := range decs {
		fmt.Fprintf(h, "%d:%d@%d;", d.Tx, d.Exec, d.At)
	}
	return h.Sum64()
}

// streamRatio measures the engine's competitive ratio on a stream
// workload's arrivals, run as one finite instance through dtm.Run with
// at most ratioSnapshots snapshots: dtm.RunStream takes none. The finite
// run must reproduce the stream run's schedule q.
func (w *workload) streamRatio(in *input, q quality) (float64, error) {
	arr := in.arrivals
	inst := instanceOf(in.g, in.objects, arr)
	times := 0
	for i := range arr {
		if i == 0 || arr[i].At != arr[i-1].At {
			times++
		}
	}
	s, err := dtm.NewEngine(w.engine)
	if err != nil {
		return 0, err
	}
	rr, err := dtm.Run(inst, s, dtm.RunOptions{
		Sim:           dtm.SimOptions{Parallel: w.parallel},
		SnapshotEvery: (times + ratioSnapshots - 1) / ratioSnapshots,
	})
	if err != nil {
		return 0, err
	}
	if rr.Failed {
		return 0, fmt.Errorf("ratio run failed: %v", rr.Err)
	}
	if rr.Makespan != q.Makespan || rr.TotalComm != q.TotalComm || rr.MeanLat() != q.MeanSojourn {
		return 0, fmt.Errorf("dtm.Run and dtm.RunStream disagree on one input: makespan %d/%d, comm %d/%d, mean sojourn %g/%g",
			rr.Makespan, q.Makespan, rr.TotalComm, q.TotalComm, rr.MeanLat(), q.MeanSojourn)
	}
	return rr.MaxRatio, nil
}

// checkReplay replays a finite run's decision log through dtm.Replay and
// requires the same makespan, per-transaction latencies and TotalComm.
func checkReplay(in *dtm.Instance, r *runResult) error {
	res, err := dtm.Replay(in, r.decisions, dtm.SimOptions{})
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	if res.Makespan != r.q.Makespan || res.TotalComm != r.q.TotalComm {
		return fmt.Errorf("replay: makespan %d comm %d, run had %d and %d",
			res.Makespan, res.TotalComm, r.q.Makespan, r.q.TotalComm)
	}
	if len(res.Latency) != len(r.latency) {
		return fmt.Errorf("replay: %d latencies, run had %d", len(res.Latency), len(r.latency))
	}
	for i, l := range res.Latency {
		if l != r.latency[i] {
			return fmt.Errorf("replay: transaction %d latency %d, run had %d", i, l, r.latency[i])
		}
	}
	return nil
}
