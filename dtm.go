// Package dtm is a library for dynamic (online) transaction scheduling in
// distributed transactional memory under the data-flow model, implementing
// the algorithms and analyses of:
//
//	C. Busch, M. Herlihy, M. Popovic, G. Sharma.
//	"Dynamic Scheduling in Distributed Transactional Memory." IPPS 2020.
//
// Transactions reside at the nodes of a weighted communication graph;
// shared objects are mobile and travel to the transactions that request
// them; a transaction executes the moment it has assembled all of its
// objects. The library provides:
//
//   - the synchronous execution model and its discrete-event engine
//     (Instance, Sim, Replay) — the single source of truth for schedule
//     feasibility;
//   - the online greedy scheduler of Algorithm 1 (Theorems 1-3: O(k) on
//     the clique, O(k log n) on hypercube-like graphs);
//   - the offline batch substrate and the online bucket conversion of
//     Algorithm 2 (Theorem 4: O(b_A log³(nD))-competitive);
//   - the decentralized machinery of Section V: a synchronous
//     message-passing runtime, a hierarchical sparse cover, and the
//     distributed bucket protocol of Algorithm 3, plus the Section III-E
//     hub coordinator;
//   - workload generators, competitive-ratio measurement against computed
//     lower bounds on OPT, and the experiment harness regenerating every
//     claim in the paper (see EXPERIMENTS.md).
//
// Quick start:
//
//	g, _ := dtm.Clique(16)
//	in, _ := dtm.Generate(g, dtm.WorkloadConfig{K: 2, NumObjects: 8, Rounds: 4})
//	rr, _ := dtm.Run(in, dtm.NewGreedy(dtm.GreedyOptions{}), dtm.RunOptions{})
//	fmt.Println(rr.Makespan, rr.MaxRatio)
package dtm

import (
	"io"

	"dtm/internal/batch"
	"dtm/internal/bucket"
	"dtm/internal/core"
	"dtm/internal/cover"
	"dtm/internal/distbucket"
	"dtm/internal/distnet"
	"dtm/internal/engine"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/sched"
	"dtm/internal/trace"
	"dtm/internal/workload"
)

// Model types (Section II).
type (
	// Time is a discrete synchronous time step.
	Time = core.Time
	// TxID identifies a transaction within an Instance.
	TxID = core.TxID
	// ObjID identifies a shared object within an Instance.
	ObjID = core.ObjID
	// NodeID identifies a node of the communication graph.
	NodeID = graph.NodeID
	// Weight is an edge weight or distance in time steps.
	Weight = graph.Weight
	// Graph is the weighted communication graph G.
	Graph = graph.Graph
	// Object is a mobile shared object.
	Object = core.Object
	// Transaction is an atomic block pinned to a node.
	Transaction = core.Transaction
	// Instance is a complete dynamic scheduling problem.
	Instance = core.Instance
	// Sim is the synchronous execution engine.
	Sim = core.Sim
	// SimOptions configure a Sim.
	SimOptions = core.SimOptions
	// Decision is one scheduling decision, for replay.
	Decision = core.Decision
)

// Scheduling types.
type (
	// Scheduler is an online scheduling algorithm driven by Run.
	Scheduler = sched.Scheduler
	// SchedulerEnv is the oracle access a Scheduler receives in Start,
	// for implementing custom schedulers against Run.
	SchedulerEnv = sched.Env
	// RunOptions configure Run.
	RunOptions = sched.Options
	// RunResult bundles execution metrics with the competitive-ratio trace.
	RunResult = sched.RunResult
	// RatioPoint is one competitive-ratio observation.
	RatioPoint = sched.RatioPoint
	// GreedyOptions configure the Algorithm 1 scheduler.
	GreedyOptions = greedy.Options
	// BucketOptions configure the Algorithm 2 scheduler.
	BucketOptions = bucket.Options
	// BatchScheduler is an offline batch algorithm A for the bucket
	// conversion.
	BatchScheduler = batch.Scheduler
	// BatchProblem is an offline batch scheduling problem.
	BatchProblem = batch.Problem
	// DistributedOptions configure the Algorithm 3 protocol: the batch
	// algorithm, the cover seed, and the injected fault plan (Faults).
	DistributedOptions = distbucket.Options
	// DistributedReport is what an Algorithm 3 run adds to its RunResult
	// (cover shape, abandoned reasons, the Lemma 6 audit), read from the
	// protocol's Report method after Run. What the protocol did (messages,
	// reports, insertions, activations, levels, cover layers, faults) is
	// counted in the run's Metrics, under distnet.* and distbucket.*.
	DistributedReport = distbucket.Report
	// WorkloadConfig parameterizes Generate.
	WorkloadConfig = workload.Config
	// TraceRun is a serialized, re-validatable record of a run.
	TraceRun = trace.Run
	// CoverHierarchy is the Section V hierarchical sparse cover.
	CoverHierarchy = cover.Hierarchy
)

// Fault-model types (the unreliable-network extension of Section V's
// synchronous model). A FaultPlan set in DistributedOptions.Faults.Plan
// subjects the message-passing engines to seeded, deterministic message
// drop, duplication, bounded delay jitter and node crash windows; the
// Algorithm 3 protocol recovers with acknowledged, retried requests and
// reports anything it had to give up on in RunResult.Abandoned (with
// reasons in DistributedReport.Abandoned) rather than hanging. The zero
// plan is byte-identical to the failure-free model.
type (
	// FaultPlan describes the injected network faults; resolved from a
	// seeded RNG per message so runs with the same plan agree.
	FaultPlan = distnet.FaultPlan
	// FaultOptions bundles a FaultPlan with the recovery layer's retry
	// budget (MaxAttempts).
	FaultOptions = distbucket.FaultOptions
	// CrashWindow takes one node offline over a closed time interval.
	CrashWindow = distnet.CrashWindow
	// AbandonedTx records one transaction a degraded run gave up on,
	// with the reason.
	AbandonedTx = distbucket.AbandonedTx
)

// ParseCrashWindows parses a comma-separated "node:from:to" crash-window
// list — the format the CLI -crash flag accepts — into a FaultPlan's
// Crashes field.
func ParseCrashWindows(s string) ([]CrashWindow, error) { return distnet.ParseCrashes(s) }

// Observability types. A Metrics registry collects counters, gauges, and
// histograms across the driver, the engine, and the scheduler; the result
// carries the final MetricsSnapshot. Every run keeps one: the registry
// passed via RunOptions.Obs, or a private one when that is nil. A Sink
// additionally streams per-event records.
type (
	// Metrics is the run-wide observability registry.
	Metrics = obs.Metrics
	// MetricsSnapshot is the exported, serializable state of a registry.
	MetricsSnapshot = obs.Snapshot
	// MetricsEvent is one streamed observability event.
	MetricsEvent = obs.Event
	// Sink consumes streamed observability events.
	Sink = obs.Sink
)

// NewMetrics returns an empty observability registry to pass in
// RunOptions.Obs.
func NewMetrics() *Metrics { return obs.New() }

// NewJSONLSink returns a Sink writing each event as one JSON line.
func NewJSONLSink(w io.Writer) Sink { return obs.NewJSONLSink(w) }

// Workload knobs re-exported for WorkloadConfig.
const (
	ArrivalBatch    = workload.ArrivalBatch
	ArrivalPeriodic = workload.ArrivalPeriodic
	ArrivalPoisson  = workload.ArrivalPoisson
	ArrivalBursty   = workload.ArrivalBursty
	PopUniform      = workload.PopUniform
	PopZipf         = workload.PopZipf
	PopHotspot      = workload.PopHotspot
)

// Topology constructors (the paper's specialized architectures).
var (
	// Clique returns the complete graph on n unit-weight nodes.
	Clique = graph.Clique
	// Line returns the n-node path graph.
	Line = graph.Line
	// Ring returns the n-node cycle graph.
	Ring = graph.Ring
	// Grid returns a multi-dimensional unit-weight lattice.
	Grid = graph.Grid
	// Hypercube returns the dim-dimensional hypercube.
	Hypercube = graph.Hypercube
	// Butterfly returns the dim-dimensional butterfly network.
	Butterfly = graph.Butterfly
	// Cluster returns the Section IV-D cluster topology.
	Cluster = graph.Cluster
	// Star returns the Section IV-D star topology.
	Star = graph.Star
	// Tree returns a complete rooted tree.
	Tree = graph.Tree
	// RandomConnected returns a seeded random connected graph.
	RandomConnected = graph.RandomConnected
)

// ClusterSpec and StarSpec parameterize Cluster and Star.
type (
	ClusterSpec = graph.ClusterSpec
	StarSpec    = graph.StarSpec
)

// Generate builds a workload instance on g (seeded, deterministic).
func Generate(g *Graph, cfg WorkloadConfig) (*Instance, error) {
	return workload.Generate(g, cfg)
}

// EngineDesc describes one registered engine: its ID and aliases, its
// default constructor, its rebuild oracle where it keeps one, and whether
// it runs under RunStream. Harnesses enumerate Engines() instead of
// hand-maintaining scheduler lists; NewEngine resolves an ID to a
// default-configured scheduler.
type EngineDesc = engine.Desc

// Engines returns every registered engine in presentation order.
func Engines() []EngineDesc { return engine.All() }

// EngineByID resolves an engine by ID or alias, case-insensitively.
func EngineByID(id string) (EngineDesc, bool) { return engine.ByID(id) }

// NewEngine constructs the engine registered under id with default
// options; it errors on unknown IDs.
func NewEngine(id string) (Scheduler, error) { return engine.Default(id) }

// NewGreedy returns the Algorithm 1 online greedy scheduler.
func NewGreedy(opts GreedyOptions) *greedy.Greedy { return greedy.New(opts) }

// NewCoordinator returns the Section III-E hub coordinator scheduler.
func NewCoordinator(hub NodeID, opts GreedyOptions) *greedy.Coordinator {
	return greedy.NewCoordinator(hub, opts)
}

// NewBucket returns the Algorithm 2 online bucket scheduler converting the
// offline batch algorithm in opts.Batch.
func NewBucket(opts BucketOptions) *bucket.Bucket { return bucket.New(opts) }

// NewDistributed returns the Algorithm 3 distributed bucket protocol:
// decisions are computed by per-node handlers exchanging messages with
// real latencies, while objects move at half speed unless
// RunOptions.Sim.SlowFactor sets another speed. Run it like any other
// scheduler and read its DistributedReport from Report afterwards. With a
// fault plan in opts.Faults the network becomes unreliable and the
// protocol recovers by retrying; transactions it cannot save are listed
// in RunResult.Abandoned instead of hanging the run.
func NewDistributed(opts DistributedOptions) *distbucket.Protocol { return distbucket.New(opts) }

// TourBatch returns the geometric (MST Euler tour) offline batch scheduler —
// also the TSP-tour baseline of Zhang et al. that the paper cites.
func TourBatch() BatchScheduler { return batch.Tour{} }

// Run executes an online scheduler on the instance with a zero-latency
// oracle (the centralized setting of Sections III-IV) and measures the
// empirical competitive ratio of Definition 1.
func Run(in *Instance, s Scheduler, opts RunOptions) (*RunResult, error) {
	return sched.Run(in, s, opts)
}

// Replay validates a decision log against the execution model.
func Replay(in *Instance, decisions []Decision, opts SimOptions) (*core.Result, error) {
	return core.Replay(in, decisions, opts, nil)
}

// Open-system streaming types: arrivals pulled lazily from a Source
// instead of a materialized Instance, driven by RunStream with bounded
// engine memory (committed transactions retire from the live window).
type (
	// Source produces arrivals lazily in non-decreasing time order.
	Source = workload.Source
	// SourceArrival is one streamed transaction request.
	SourceArrival = workload.Arrival
	// StreamConfig parameterizes the generative sources.
	StreamConfig = workload.StreamConfig
	// StreamOptions configure a RunStream run.
	StreamOptions = sched.StreamOptions
	// StreamResult summarizes an open-system streaming run: arrival and
	// completion counts, sojourn-latency percentiles, queue-length and
	// live-window peaks (split into run halves — the stability signal).
	StreamResult = sched.StreamResult
)

// NewPoissonSource returns an endless memoryless source: system-wide
// arrivals at rate cfg.Rate per step, uniform over issuing nodes, object
// sets from the configured popularity distribution (seeded,
// deterministic).
func NewPoissonSource(g *Graph, cfg StreamConfig) (Source, error) {
	return workload.NewPoissonSource(g, cfg)
}

// NewBurstySource returns an endless adversarial source: every
// max(1, round(Burst/Rate)) steps it releases Burst simultaneous arrivals
// on a rotating contiguous node block, holding the long-run rate at
// cfg.Rate while maximizing instantaneous contention.
func NewBurstySource(g *Graph, cfg StreamConfig) (Source, error) {
	return workload.NewBurstySource(g, cfg)
}

// NewInstanceSource adapts a finite instance into a Source: its
// transactions stream out in (arrival, ID) order and the source exhausts
// after the last one. The finite API is one case of the streaming one:
//
//	rr, _ := dtm.RunStream(in.G, in.Objects, dtm.NewInstanceSource(in), s, dtm.StreamOptions{})
func NewInstanceSource(in *Instance) Source { return workload.NewInstanceSource(in) }

// UniformObjects places num objects at seeded uniform-random origins — the
// object set to pass RunStream alongside a generative source.
func UniformObjects(g *Graph, num int, seed int64) []*Object {
	return workload.UniformObjects(g, num, seed)
}

// RunStream drives a scheduler against a streaming source: arrivals are
// pulled lazily as simulated time reaches them, committed transactions
// retire from the engine window (unless opts.CollectDecisions, which keeps
// the whole history), and queue-length, sojourn-latency, and live-state
// series are recorded through the obs registry. Endless sources require
// opts.MaxArrivals.
func RunStream(g *Graph, objects []*Object, src Source, s Scheduler, opts StreamOptions) (*StreamResult, error) {
	return sched.RunStream(g, objects, src, s, opts)
}

// CaptureTrace records a finished run as a serializable, re-validatable
// trace, at the object speed the run used (RunResult.SlowFactor).
func CaptureTrace(in *Instance, rr *RunResult) *TraceRun {
	return trace.Capture(in, rr)
}

// BuildCover constructs the Section V sparse cover hierarchy. It does not
// check the cover properties; the hierarchy's Verify method does.
func BuildCover(g *Graph, seed int64) (*CoverHierarchy, error) {
	return cover.Build(g, seed)
}
