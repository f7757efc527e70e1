// Package sched defines the online scheduler interface and the simulation
// driver that binds a scheduler to an instance, runs the synchronous model
// to completion, and measures the empirical competitive ratio of
// Definition 1 in Busch et al. (IPPS 2020).
//
// The driver realizes the "central authority with instant knowledge"
// abstraction of Sections III and IV: the scheduler observes arrivals and
// object positions with zero latency. The decentralized protocol of
// Section V (internal/distbucket) pays explicit message latencies over
// internal/distnet and runs on the same driver, wrapped as a Scheduler.
package sched

import (
	"sort"
	"time"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/lowerbound"
	"dtm/internal/obs"
	"dtm/internal/stats"
)

// Env gives a scheduler oracle access to the running simulation.
type Env struct {
	Sim *core.Sim
	G   *graph.Graph
	// Obs is the run's observability registry, never nil; schedulers
	// register their own instruments from Start.
	Obs *obs.Metrics
}

// Scheduler is an online transaction scheduling algorithm. Implementations
// assign irrevocable execution times via Env.Sim.Decide, either immediately
// in OnArrive (greedy) or later from OnWake (bucket activations, epoch
// boundaries). A scheduler that may give up on transactions instead of
// scheduling them also has an Abandoned() []core.TxID method listing them
// by ID; the drivers then accept those transactions never executing. A
// scheduler built for a particular object speed also has a SlowFactor()
// int method; the drivers run the sim at that speed unless
// core.SimOptions.SlowFactor sets one.
type Scheduler interface {
	Name() string
	// Start binds the scheduler to a run; called once before any arrivals.
	Start(env *Env) error
	// OnArrive delivers the transactions generated at the current time.
	// The slice is the driver's and valid only during the call; a
	// scheduler that keeps transactions copies them out.
	OnArrive(txns []*core.Transaction) error
	// NextWake returns the next time OnWake should run, if the scheduler
	// has deferred work pending.
	NextWake() (core.Time, bool)
	// OnWake runs deferred work at the time previously returned by NextWake.
	OnWake() error
}

// snapshot captures the live state at one observation time; ratios are
// computed post-hoc once every execution time is known.
type snapshot struct {
	At   core.Time
	Live int       // live-set size
	LB   core.Time // lower bound on the optimal duration t* from At
}

// RatioPoint is a finished snapshot: the empirical competitive ratio at one
// observation time.
type RatioPoint struct {
	At       core.Time
	LiveTxns int
	MaxRem   core.Time // max remaining duration over live transactions
	LB       core.Time
	Ratio    float64 // MaxRem / LB
}

// RunResult bundles the execution metrics with the competitive-ratio trace.
type RunResult struct {
	*core.Result
	Scheduler string
	Ratios    []RatioPoint
	MaxRatio  float64
	// SlowFactor is the object speed divisor the run used (1 = full
	// speed), the one to replay Decisions at.
	SlowFactor int
	// Decisions is the full decision log (sorted by decision time), enough
	// to replay and re-validate the run with core.Replay.
	Decisions []core.Decision
	// Abandoned lists transactions the run gave up on instead of executing
	// (sorted by ID), as reported by the scheduler's optional Abandoned
	// method. Of the registry engines only the distributed protocol has
	// one: it gives up under an injected fault plan when recovery is
	// exhausted (crashed origins, lost sessions). A run with abandoned
	// transactions but Failed == false degraded gracefully: every other
	// transaction executed and the ratio trace covers only those.
	Abandoned []core.TxID
	// Failed reports that the run did not finish cleanly — the scheduler
	// misbehaved, left transactions unscheduled, or the schedule violated
	// the model — and Err carries the cause. Err supersedes the embedded
	// core Result's Err (it includes driver-level failures the engine
	// never sees).
	Failed bool
	Err    error
	// Metrics is the observability snapshot taken when the result was
	// built, of Options.Obs or of the private registry the run made
	// without one. The registry is the only count of what the engine did
	// (the theorem and protocol audits among it), so every run has one.
	Metrics *obs.Snapshot
}

// Options configure a driver run.
type Options struct {
	Sim core.SimOptions
	// SnapshotEvery takes a competitive-ratio snapshot at every k-th
	// distinct arrival time (0 or 1 = every one; <0 disables snapshots).
	SnapshotEvery int
	// Obs collects metrics across the driver, the engine, and the
	// scheduler, and is snapshotted into RunResult.Metrics. It is the
	// run's one registry: the driver hands it to the Sim and exposes it to
	// schedulers via Env.Obs. Every run is instrumented, so a private
	// registry is created when nil; set it to stream events through a
	// sink or to share one registry across runs.
	Obs *obs.Metrics
}

// driverMetrics holds the drive core's instrument handles.
type driverMetrics struct {
	arrivals *obs.Counter   // sched.arrivals: transactions delivered
	wakeups  *obs.Counter   // sched.wakeups: OnWake invocations
	snaps    *obs.Counter   // sched.snapshots: ratio snapshots taken
	snapLive *obs.Histogram // sched.snapshot_live: live-set size per snapshot
	snapNs   *obs.Histogram // sched.snapshot_ns: wall-clock cost of a snapshot
	live     *obs.Gauge     // sched.live_txns: live-set size at snapshots
}

func newDriverMetrics(m *obs.Metrics) driverMetrics {
	return driverMetrics{
		arrivals: m.Counter(obs.NameSchedArrivals),
		wakeups:  m.Counter(obs.NameSchedWakeups),
		snaps:    m.Counter(obs.NameSchedSnapshots),
		snapLive: m.Histogram(obs.NameSchedSnapshotLive),
		snapNs:   m.Histogram(obs.NameSchedSnapshotNs),
		live:     m.Gauge(obs.NameSchedLiveTxns),
	}
}

// Run executes the scheduler against the instance to completion and
// computes the competitive-ratio trace.
func Run(in *core.Instance, s Scheduler, opts Options) (*RunResult, error) {
	return run(in, s, noArrivals{}, opts, "")
}

// run is Run and RunClosedLoop: the drive core over the instance and the
// stream, then the result, named after the started scheduler plus suffix.
// The result is nil only when the run never started; a failed run's
// partial result is marked with the driver error so callers can tell it
// from a finished one.
func run(in *core.Instance, s Scheduler, stream arrivalStream, opts Options, suffix string) (*RunResult, error) {
	if opts.Obs == nil {
		opts.Obs = obs.New()
	}
	sim, snaps, err := drive(in, s, stream, opts, nil)
	if sim == nil {
		return nil, err
	}
	rr := &RunResult{Result: sim.Result(), Scheduler: s.Name() + suffix, SlowFactor: sim.SlowFactor(),
		Failed: err != nil, Err: err, Metrics: opts.Obs.Snapshot(), Decisions: harvestDecisions(sim),
		Abandoned: abandoned(s)}
	// Ratios are computed post hoc, once every execution time is known.
	maxRem := maxRemaining(sim, snaps)
	for i, sn := range snaps {
		rp := RatioPoint{
			At:       sn.At,
			LiveTxns: sn.Live,
			MaxRem:   maxRem[i],
			LB:       sn.LB,
			Ratio:    float64(maxRem[i]) / float64(sn.LB),
		}
		rr.Ratios = append(rr.Ratios, rp)
		if rp.Ratio > rr.MaxRatio {
			rr.MaxRatio = rp.Ratio
		}
	}
	return rr, err
}

// maxRemaining returns each snapshot's MaxRem: the latest decided
// execution time among its live transactions less At, or 0 if none is
// later. It reads the latest over every transaction arrived by At
// instead, one prefix max over the snapshots. The two agree: a
// transaction that left the live set executed before At, and its decided
// time is no later than its execution. Unscheduled transactions (a failed
// run, or abandoned ones) count for neither.
func maxRemaining(sim *core.Sim, snaps []snapshot) []core.Time {
	latest := make([]core.Time, len(snaps)) // indexed by the first snapshot at or after arrival
	for _, tx := range sim.Instance().Txns {
		exec, ok := sim.Scheduled(tx.ID)
		if !ok {
			continue
		}
		i := sort.Search(len(snaps), func(i int) bool { return snaps[i].At >= tx.Arrival })
		if i < len(snaps) && exec > latest[i] {
			latest[i] = exec
		}
	}
	var hi core.Time
	for i, sn := range snaps {
		hi = max(hi, latest[i])
		latest[i] = max(0, hi-sn.At)
	}
	return latest
}

// liveSet is the snapshots' running live set: every delivered transaction
// not yet seen executed before a snapshot time, and the lower-bound
// tracker over the same set. The drive core keeps one only while
// snapshots are on.
type liveSet struct {
	txns []*core.Transaction
	lb   *lowerbound.Tracker
}

func newLiveSet(g *graph.Graph) *liveSet {
	return &liveSet{lb: lowerbound.NewTracker(g)}
}

// add puts a delivered batch in the live set.
func (l *liveSet) add(txns []*core.Transaction) {
	l.txns = append(l.txns, txns...)
	for _, tx := range txns {
		l.lb.Add(tx)
	}
}

// takeSnapshot adds the batch delivered at t to the live set, drops every
// transaction that executed before t, and records the live-set size and
// the OPT lower bound; it observes the size and the snapshot's wall-clock
// cost. Live means arrived but not yet executed (a transaction executing
// exactly at t is included; its remaining duration is 0). Every
// transaction arrived by t was delivered by t, so the set is the one a
// scan of the instance would find.
func takeSnapshot(sim *core.Sim, t core.Time, batch []*core.Transaction, live *liveSet, dm driverMetrics) snapshot {
	// The wall-clock reads below time the snapshot into sched.snapshot_ns,
	// which no scheduling decision or decision log reads; detclock's
	// allowlist names this function for them.
	start := time.Now()
	live.add(batch)
	kept := live.txns[:0]
	for _, tx := range live.txns {
		if et, ok := sim.Executed(tx.ID); ok && et < t {
			live.lb.Remove(tx)
			continue
		}
		kept = append(kept, tx)
	}
	clear(live.txns[len(kept):])
	live.txns = kept
	lb := live.lb.Estimate(t, func(o core.ObjID) lowerbound.Avail { return lowerbound.AvailOf(sim, o) })
	n := len(kept)
	dm.snapNs.Observe(time.Since(start).Nanoseconds())
	dm.snaps.Inc()
	dm.snapLive.Observe(int64(n))
	dm.live.Set(int64(n))
	return snapshot{At: t, Live: n, LB: lb}
}

// CompletionRate returns the fraction of transactions that executed:
// 1 minus the abandoned share. 1.0 for every fault-free run.
func (rr *RunResult) CompletionRate() float64 {
	n := len(rr.Latency)
	if n == 0 {
		return 1
	}
	return float64(n-len(rr.Abandoned)) / float64(n)
}

// ratioSamples extracts the per-snapshot ratios as a float sample.
func (rr *RunResult) ratioSamples() []float64 {
	xs := make([]float64, len(rr.Ratios))
	for i, r := range rr.Ratios {
		xs[i] = r.Ratio
	}
	return xs
}

// MeanRatio returns the mean of the per-snapshot competitive ratios.
func (rr *RunResult) MeanRatio() float64 {
	return stats.Mean(rr.ratioSamples())
}
