// Command perfbench is the repository benchmark. It runs one named
// workload through the public dtm facade for a fixed time, checks every
// run's outputs, and prints one JSON result line: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1. NOTES.md describes
// the workloads and metrics; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times set-up runs; setup_s is the median.
const setupReps = 5

// minRuns is the fewest measured runs of each kind a result rests on.
const minRuns = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: stream-greedy, stream-bucket, burst-greedy-p2 or ratio-window")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	spans := flag.String("spans", "", "directory a traced run writes its spans to (empty: not written)")
	flag.Parse()
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		os.Exit(2)
	}
	b := &bench{w: w, seed: *seed, budget: time.Duration(*seconds * float64(time.Second))}
	if *trace == 1 {
		b.rec = newRecorder()
	}
	res, err := b.measure()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		if res == nil {
			os.Exit(1)
		}
	}
	if b.rec != nil && *spans != "" {
		if werr := b.rec.write(filepath.Join(*spans, w.name+".tsv")); werr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", werr)
		}
	}
	fmt.Printf("# workload=%s seed=%d trace=%d gomaxprocs=%d nproc=%d %s\n",
		w.name, *seed, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	out, _ := json.Marshal(res) // a map of plain numbers always marshals
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one invocation: a workload, its seed, the measuring budget,
// and the span recorder of a traced run.
type bench struct {
	w      *workload
	seed   int64
	budget time.Duration
	rec    *recorder

	in     *input
	setups []setupTimes
	ref    *quality // the first run's schedule; every later run must match
	res    result
}

// measure sets up, runs the workload until the budget is spent, and
// builds the result. A non-nil error with a result means the correctness
// gate failed.
func (b *bench) measure() (*result, error) {
	b.res = result{Correct: true, Metrics: map[string]metric{}}
	for i := 0; i < setupReps; i++ {
		in, st, err := b.w.setup(b.seed, b.rec)
		if err != nil {
			return nil, err
		}
		b.in = in
		b.setups = append(b.setups, st)
	}
	var err error
	if b.rec == nil {
		err = b.endToEnd()
	} else {
		err = b.perLayer()
	}
	if err != nil {
		b.res.Correct = false
		return &b.res, err
	}
	return &b.res, nil
}

// runOnce runs the inputs once, counts the arrivals, and applies the
// gate: no error, every arrival committed, no violation, and the same
// schedule as the first run, whose decision log must replay (finite
// workload).
func (b *bench) runOnce(rec *recorder, parallel int) (*runResult, error) {
	n := int64(b.in.n)
	b.res.Attempted += n
	r, err := b.w.run(b.in, rec, parallel)
	if err != nil {
		failed := n
		if r != nil {
			failed = n - r.q.Completed
		}
		b.res.Failed += failed
		return nil, err
	}
	if b.ref != nil {
		if r.q != *b.ref {
			return nil, fmt.Errorf("schedule differs between runs of one input: %+v then %+v", *b.ref, r.q)
		}
		return r, nil
	}
	b.ref = &r.q
	if !b.w.stream() {
		if err := checkReplay(b.in.inst, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (b *bench) put(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd measures untraced runs for the whole budget and reports host
// cost and schedule quality.
func (b *bench) endToEnd() error {
	var runs []*runResult
	deadline := time.Now().Add(b.budget)
	for len(runs) < minRuns || time.Now().Before(deadline) {
		r, err := b.runOnce(nil, b.w.parallel)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	rss := maxRSSMB() // before the stream workloads' finite ratio run
	q := *b.ref
	maxRatio := q.MaxRatio
	if b.w.stream() {
		var err error
		if maxRatio, err = b.w.streamRatio(b.in, q); err != nil {
			return err
		}
	}
	n := float64(b.in.n)
	b.put("arrivals_per_s", median(runs, func(r *runResult) float64 { return n / r.wall.Seconds() }), "1/s")
	b.put("allocs_per_arrival", median(runs, func(r *runResult) float64 { return float64(r.mallocs) / n }), "count")
	b.put("bytes_per_arrival", median(runs, func(r *runResult) float64 { return float64(r.bytes) / n }), "B")
	b.put("max_rss_mb", rss, "MB")
	b.put("setup_s", b.setupMedian(setupTimes.total), "s")
	b.put("sojourn_mean_steps", q.MeanSojourn, "steps")
	b.put("comm_per_arrival", float64(q.TotalComm)/n, "weight")
	b.put("queue_peak", float64(q.QueuePeak), "count")
	b.put("max_ratio", maxRatio, "ratio")
	return nil
}

// perLayer alternates untraced and traced runs for the whole budget (plus
// P=1 runs on a parallel workload, and a timed replay after each traced
// run of the finite workload) and splits the traced runs' wall time
// across the layers the benchmark calls into.
func (b *bench) perLayer() error {
	var plain, traced, seq []*runResult
	var replays []time.Duration
	deadline := time.Now().Add(b.budget)
	for len(traced) < minRuns || time.Now().Before(deadline) {
		r, err := b.runOnce(nil, b.w.parallel)
		if err != nil {
			return err
		}
		plain = append(plain, r)
		if b.w.parallel > 1 {
			r, err := b.runOnce(nil, 1)
			if err != nil {
				return err
			}
			seq = append(seq, r)
		}
		if r, err = b.runOnce(b.rec, b.w.parallel); err != nil {
			return err
		}
		traced = append(traced, r)
		if !b.w.stream() {
			t0 := time.Now()
			err := checkReplay(b.in.inst, r)
			t1 := time.Now()
			if err != nil {
				return err
			}
			b.rec.add(spanReplay, -1, t0, t1)
			replays = append(replays, t1.Sub(t0))
		}
	}

	// Sum each traced run's child spans by name.
	child := map[string]time.Duration{}
	var calls []time.Duration // OnArrive and OnWake durations
	isRun := map[int]bool{}
	for _, r := range traced {
		isRun[r.span] = true
	}
	for _, s := range b.rec.spans {
		if !isRun[s.parent] {
			continue
		}
		child[s.name] += s.dur
		if s.name == spanArrive || s.name == spanWake {
			calls = append(calls, s.dur)
		}
	}
	k := float64(len(traced))
	var runWall, snap time.Duration
	for _, r := range traced {
		runWall += r.wall
		snap += time.Duration(r.metrics.Histograms["sched.snapshot_ns"].Sum)
	}
	self := runWall - snap
	for _, d := range child {
		self -= d
	}
	if self < 0 {
		return errors.New("layer spans add up to more than their run spans")
	}
	perRun := func(d time.Duration) float64 { return d.Seconds() / k }
	b.put("trace.run_s", perRun(runWall), "s")
	b.put("core.self_s", perRun(self), "s")
	b.put("engine.start_s", perRun(child[spanStart]), "s")
	b.put("engine.arrive_s", perRun(child[spanArrive]), "s")
	b.put("engine.wake_s", perRun(child[spanWake]), "s")
	b.put("engine.next_wake_s", perRun(child[spanNextWake]), "s")
	b.put("engine.livestats_s", perRun(child[spanLiveStats]), "s")
	b.put("sched.snapshot_s", perRun(snap), "s")
	b.put("engine.calls", float64(len(calls))/k, "count")
	b.put("engine.call_samples", float64(len(calls)), "count")
	b.put("engine.call_p50_us", durQuantile(calls, 0.50).Seconds()*1e6, "us")
	b.put("engine.call_p99_us", durQuantile(calls, 0.99).Seconds()*1e6, "us")

	var replayS float64
	if len(replays) > 0 {
		replayS = durQuantile(replays, 0.5).Seconds()
	}
	b.put("core.replay_s", replayS, "s")
	wall := func(r *runResult) float64 { return r.wall.Seconds() }
	var speedup, allocsRatio float64
	if len(seq) > 0 {
		allocs := func(r *runResult) float64 { return float64(r.mallocs) }
		speedup = median(seq, wall) / median(plain, wall)
		allocsRatio = median(plain, allocs) / median(seq, allocs)
	}
	b.put("par.speedup", speedup, "ratio")
	b.put("par.allocs_ratio", allocsRatio, "ratio")
	b.put("graph.warm_s", b.setupMedian(func(st setupTimes) time.Duration { return st.graphWarm }), "s")
	b.put("workload.gen_s", b.setupMedian(func(st setupTimes) time.Duration { return st.gen }), "s")
	b.put("pool.warm_s", b.setupMedian(func(st setupTimes) time.Duration { return st.pools }), "s")

	// Engine work counts: exact, so the last traced run stands for all.
	c := traced[len(traced)-1].metrics.Counters
	share := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}
	hits, misses := c["batch.tour_cache_hits"], c["batch.tour_cache_misses"]
	b.put("batch.tour_cache_hit_share", share(hits, hits+misses), "ratio")
	b.put("batch.session_costs", float64(c["batch.session_costs"]), "count")
	b.put("batch.session_rebuilds", float64(c["batch.session_rebuilds"]), "count")
	b.put("depgraph.edges_reused", float64(c["depgraph.edges_reused"]), "count")
	b.put("greedy.within_bound_share", share(c["greedy.within_bound"], c["greedy.colors_assigned"]), "ratio")
	placed := c["window.placed"]
	b.put("window.placed_share", share(placed, placed+c["window.retries"]), "ratio")
	b.put("bucket.activations", float64(c["bucket.activations"]), "count")
	b.put("bucket.overflows", float64(c["bucket.overflows"]), "count")
	b.put("core.object_moves", float64(c["core.object_moves"]), "count")
	b.put("core.travel_weight", float64(c["core.travel_weight"]), "weight")
	b.put("sched.wakeups", float64(c["sched.wakeups"]), "count")

	q := *b.ref
	b.put("stream.queue_half_ratio", share(q.QueueSecond, q.QueueFirst), "ratio")
	b.put("stream.window_peak", float64(q.WindowPeak), "count")
	g := traced[len(traced)-1].metrics.Gauges
	b.put("stream.live_state_peak", float64(g["stream.live_state"].Max), "count")

	b.put("trace.overhead", median(traced, wall)/median(plain, wall)-1, "ratio")
	b.put("host.gomaxprocs", float64(runtime.GOMAXPROCS(0)), "count")
	b.put("host.nproc", float64(runtime.NumCPU()), "count")
	return nil
}

func (b *bench) setupMedian(f func(setupTimes) time.Duration) float64 {
	ds := make([]time.Duration, len(b.setups))
	for i, st := range b.setups {
		ds[i] = f(st)
	}
	return durQuantile(ds, 0.5).Seconds()
}

// median returns the median of f over the runs.
func median(runs []*runResult, f func(*runResult) float64) float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = f(r)
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// durQuantile returns the nearest-rank q-quantile of ds.
func durQuantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// maxRSSMB returns the process's peak resident set size in MiB. The
// process runs one workload, so the peak covers that workload only.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
