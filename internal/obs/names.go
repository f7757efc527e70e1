package obs

// This file is the single registry of metric names. A Name can only be
// built inside package obs, so a counter, gauge or histogram outside it
// is spelled through one of the Name* values below, and a misspelt or
// unregistered name does not compile. The root package's
// obs_names_test.go checks the rest at runtime: every registered name is
// exercised by the golden workloads, and every emitted name is
// registered.

// Name is a registered metric name. Only package obs builds one: the
// static names below through register, and the one dynamic family
// through NameDistnetMsg. Snapshots stay keyed by the name's string. A
// histogram's name carries its bucket bounds, so every registry holds
// the same buckets under it and their snapshots merge exactly.
type Name struct {
	s      string
	bounds []int64 // a histogram's bucket bounds; nil for the other names
}

// String returns the name as snapshots key it.
func (n Name) String() string { return n.s }

// registered lists every static name, in declaration order; declared
// maps each static histogram name to its bucket bounds.
var (
	registered []string
	declared   = map[string][]int64{}
)

// register records a static name, with its bucket bounds if it names a
// histogram.
func register(s string, bounds ...int64) Name {
	registered = append(registered, s)
	if bounds != nil {
		declared[s] = bounds
	}
	return Name{s: s, bounds: bounds}
}

// upTo returns histogram bounds {0, 1, ..., n-1}: one bucket per small
// integer.
func upTo(n int) []int64 {
	bs := make([]int64, n)
	for i := range bs {
		bs[i] = int64(i)
	}
	return bs
}

// Counter, gauge, and histogram names, grouped by owning package.
var (
	// core.Sim engine counters and instruments.
	NameCoreDecisions     = register("core.decisions")
	NameCoreCommits       = register("core.commits")
	NameCoreViolations    = register("core.violations")
	NameCoreObjectMoves   = register("core.object_moves")
	NameCoreTravelWeight  = register("core.travel_weight")
	NameCoreLegWeight     = register("core.leg_weight", PowersOfTwo(12)...)
	NameCoreCommitLatency = register("core.commit_latency", PowersOfTwo(16)...)
	NameCoreLiveTxns      = register("core.live_txns")
	NameCoreLinkQueued    = register("core.link_queued")
	NameCoreElasticWaits  = register("core.elastic_waits")
	NameCoreTxnsAdded     = register("core.txns_added")

	// sched driver instruments (shared by every engine, the distributed
	// protocol included).
	NameSchedArrivals     = register("sched.arrivals")
	NameSchedWakeups      = register("sched.wakeups")
	NameSchedSnapshots    = register("sched.snapshots")
	NameSchedSnapshotLive = register("sched.snapshot_live", PowersOfTwo(14)...)
	NameSchedSnapshotNs   = register("sched.snapshot_ns", PowersOfTwo(36)...)
	NameSchedLiveTxns     = register("sched.live_txns")

	// streaming (open-system) driver instruments.
	NameStreamQueueLen   = register("stream.queue_len")   // gauge: undecided+unexecuted txns at each delivery
	NameStreamWindowTxns = register("stream.window_txns") // gauge: live window size after retirement
	NameStreamRetired    = register("stream.retired")     // counter: transactions retired from the window
	NameStreamLiveState  = register("stream.live_state")  // gauge: deterministic RSS proxy (window + scheduler live state)

	// greedy scheduler instruments.
	NameGreedyColorsAssigned = register("greedy.colors_assigned")
	NameGreedyWithinBound    = register("greedy.within_bound")
	NameGreedyColor          = register("greedy.color", PowersOfTwo(16)...)
	NameGreedyBound          = register("greedy.bound", PowersOfTwo(16)...) // histogram: each assignment's Theorem 1/2 bound

	// window scheduler instruments (randomized window-based greedy).
	NameWindowPlaced  = register("window.placed")                    // counter: acceptances inside the window
	NameWindowRetries = register("window.retries")                   // counter: window doublings (lost rounds)
	NameWindowColor   = register("window.color", PowersOfTwo(16)...) // histogram: accepted color = delay
	NameWindowWin     = register("window.win", PowersOfTwo(16)...)   // histogram: window size at acceptance

	// bucket scheduler instruments.
	NameBucketInsertions   = register("bucket.insertions")
	NameBucketOverflows    = register("bucket.overflows")
	NameBucketActivations  = register("bucket.activations")
	NameBucketScheduled    = register("bucket.scheduled")
	NameBucketLevel        = register("bucket.level", PowersOfTwo(6)...)
	NameBucketWithinLemma4 = register("bucket.within_lemma4") // counter: decisions within Lemma 4's deadline

	// batch session instruments (sessionized batch substrate).
	NameBatchSessions        = register("batch.sessions")
	NameBatchSessionPushes   = register("batch.session_pushes")
	NameBatchSessionCosts    = register("batch.session_costs")
	NameBatchSessionRebuilds = register("batch.session_rebuilds")

	// depgraph conflict-index instruments.
	NameDepgraphLiveVertices = register("depgraph.live_vertices")
	NameDepgraphArenaBytes   = register("depgraph.arena_bytes")
	NameDepgraphEdgesReused  = register("depgraph.edges_reused")

	// distnet message-layer instruments.
	NameDistnetMessages    = register("distnet.messages")
	NameDistnetMsgDistance = register("distnet.msg_distance")
	NameDistnetMsgBytes    = register("distnet.msg_bytes")
	NameDistnetInjects     = register("distnet.injects")
	NameDistnetWakes       = register("distnet.wakes")
	NameDistnetDropped     = register("distnet.dropped")
	NameDistnetDuplicated  = register("distnet.duplicated")
	NameDistnetDelayed     = register("distnet.delayed")
	NameDistnetNodeQueue   = register("distnet.node_queue", PowersOfTwo(10)...)

	// distbucket protocol instruments.
	NameDistbucketDiscoveries = register("distbucket.discoveries")
	NameDistbucketReports     = register("distbucket.reports")
	NameDistbucketInsertions  = register("distbucket.insertions")
	NameDistbucketOverflows   = register("distbucket.overflows")
	NameDistbucketActivations = register("distbucket.activations")
	NameDistbucketReserves    = register("distbucket.reserves")
	NameDistbucketGrants      = register("distbucket.grants")
	NameDistbucketReleases    = register("distbucket.releases")
	NameDistbucketRetries     = register("distbucket.retries")
	NameDistbucketTimeouts    = register("distbucket.timeouts")
	NameDistbucketBucketLevel = register("distbucket.bucket_level", PowersOfTwo(6)...)
	// The cover layer of each report: one bucket per layer cover.Build
	// can make, ceil(log2 D)+1 for a diameter D below graph.Infinite, so
	// 63 numbered from 0. obs imports nothing, so the count is a literal;
	// distbucket's TestCoverLayerBounds checks it against graph.Infinite.
	NameDistbucketCoverLayer = register("distbucket.cover_layer", upTo(63)...)
)

// distnetMsgPrefix is the one dynamic name family: one distnet.msg.<type>
// counter per protocol message kind.
const distnetMsgPrefix = "distnet.msg."

// NameDistnetMsg names the counter of the protocol messages of one kind.
func NameDistnetMsg(kind string) Name { return Name{s: distnetMsgPrefix + kind} }

// RegisteredNames returns a copy of every static registered metric name.
func RegisteredNames() []string {
	return append([]string(nil), registered...)
}

// RegisteredPrefixes returns the dynamic name-family prefixes.
func RegisteredPrefixes() []string {
	return []string{distnetMsgPrefix}
}
