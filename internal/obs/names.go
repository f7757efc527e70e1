package obs

// This file is the single registry of engine metric names. Every counter,
// gauge, and histogram an engine package registers must be spelled through
// one of the Name* constants below (or extend a NamePrefix* constant for
// dynamic families), and every constant must appear in registeredNames.
//
// The dtmlint obsnames analyzer machine-checks both directions: call sites
// of (*Metrics).Counter/Gauge/Histogram must resolve to a registered
// constant value, and near-miss spellings of a registered name (the
// "depgraph.live_verts" typo class) are reported with a suggestion. The
// registry test in the root package closes the loop at runtime: every
// registered name is exercised by the golden workloads and every emitted
// name is registered.

// Counter, gauge, and histogram names, grouped by owning package.
const (
	// core.Sim engine counters and instruments.
	NameCoreDecisions     = "core.decisions"
	NameCoreCommits       = "core.commits"
	NameCoreViolations    = "core.violations"
	NameCoreObjectMoves   = "core.object_moves"
	NameCoreTravelWeight  = "core.travel_weight"
	NameCoreHopWeight     = "core.hop_weight"
	NameCoreCommitLatency = "core.commit_latency"
	NameCoreLiveTxns      = "core.live_txns"
	NameCoreLinkQueued    = "core.link_queued"
	NameCoreElasticWaits  = "core.elastic_waits"
	NameCoreTxnsAdded     = "core.txns_added"

	// sched driver instruments (shared by every engine, the distributed
	// protocol included).
	NameSchedArrivals     = "sched.arrivals"
	NameSchedWakeups      = "sched.wakeups"
	NameSchedSnapshots    = "sched.snapshots"
	NameSchedSnapshotLive = "sched.snapshot_live"
	NameSchedSnapshotNs   = "sched.snapshot_ns"
	NameSchedLiveTxns     = "sched.live_txns"

	// streaming (open-system) driver instruments.
	NameStreamQueueLen   = "stream.queue_len"   // gauge: undecided+unexecuted txns at each delivery
	NameStreamWindowTxns = "stream.window_txns" // gauge: live window size after retirement
	NameStreamRetired    = "stream.retired"     // counter: transactions retired from the window
	NameStreamLiveState  = "stream.live_state"  // gauge: deterministic RSS proxy (window + scheduler live state)

	// greedy scheduler instruments.
	NameGreedyColorsAssigned = "greedy.colors_assigned"
	NameGreedyWithinBound    = "greedy.within_bound"
	NameGreedyColor          = "greedy.color"

	// window scheduler instruments (randomized window-based greedy).
	NameWindowPlaced  = "window.placed"  // counter: acceptances inside the window
	NameWindowRetries = "window.retries" // counter: window doublings (lost rounds)
	NameWindowColor   = "window.color"   // histogram: accepted color = delay
	NameWindowWin     = "window.win"     // histogram: window size at acceptance

	// bucket scheduler instruments.
	NameBucketInsertions  = "bucket.insertions"
	NameBucketOverflows   = "bucket.overflows"
	NameBucketActivations = "bucket.activations"
	NameBucketScheduled   = "bucket.scheduled"
	NameBucketLevel       = "bucket.level"

	// batch session instruments (sessionized batch substrate).
	NameBatchSessions        = "batch.sessions"
	NameBatchSessionPushes   = "batch.session_pushes"
	NameBatchSessionCosts    = "batch.session_costs"
	NameBatchSessionRebuilds = "batch.session_rebuilds"
	NameBatchTourCacheHits   = "batch.tour_cache_hits"
	NameBatchTourCacheMisses = "batch.tour_cache_misses"

	// depgraph conflict-index instruments.
	NameDepgraphLiveVertices = "depgraph.live_vertices"
	NameDepgraphArenaBytes   = "depgraph.arena_bytes"
	NameDepgraphEdgesReused  = "depgraph.edges_reused"

	// distnet message-layer instruments.
	NameDistnetMessages    = "distnet.messages"
	NameDistnetMsgDistance = "distnet.msg_distance"
	NameDistnetMsgBytes    = "distnet.msg_bytes"
	NameDistnetInjects     = "distnet.injects"
	NameDistnetWakes       = "distnet.wakes"
	NameDistnetDropped     = "distnet.dropped"
	NameDistnetDuplicated  = "distnet.duplicated"
	NameDistnetDelayed     = "distnet.delayed"
	NameDistnetNodeQueue   = "distnet.node_queue"

	// distbucket protocol instruments.
	NameDistbucketDiscoveries = "distbucket.discoveries"
	NameDistbucketReports     = "distbucket.reports"
	NameDistbucketInsertions  = "distbucket.insertions"
	NameDistbucketOverflows   = "distbucket.overflows"
	NameDistbucketActivations = "distbucket.activations"
	NameDistbucketReserves    = "distbucket.reserves"
	NameDistbucketGrants      = "distbucket.grants"
	NameDistbucketReleases    = "distbucket.releases"
	NameDistbucketRetries     = "distbucket.retries"
	NameDistbucketTimeouts    = "distbucket.timeouts"
	NameDistbucketAbandoned   = "distbucket.abandoned"
	NameDistbucketBucketLevel = "distbucket.bucket_level"
)

// Dynamic name families: a registered prefix plus a runtime suffix. The
// obsnames analyzer accepts `obs.NamePrefixX + expr` at call sites.
const (
	// NamePrefixDistnetMsg is the per-message-type counter family
	// (distnet.msg.<type>), one counter per protocol message kind.
	NamePrefixDistnetMsg = "distnet.msg."
)

// registeredNames lists every static metric name. Keep in sync with the
// constants above; TestRegistryWellFormed pins the correspondence.
var registeredNames = []string{
	NameCoreDecisions,
	NameCoreCommits,
	NameCoreViolations,
	NameCoreObjectMoves,
	NameCoreTravelWeight,
	NameCoreHopWeight,
	NameCoreCommitLatency,
	NameCoreLiveTxns,
	NameCoreLinkQueued,
	NameCoreElasticWaits,
	NameCoreTxnsAdded,
	NameSchedArrivals,
	NameSchedWakeups,
	NameSchedSnapshots,
	NameSchedSnapshotLive,
	NameSchedSnapshotNs,
	NameSchedLiveTxns,
	NameStreamQueueLen,
	NameStreamWindowTxns,
	NameStreamRetired,
	NameStreamLiveState,
	NameGreedyColorsAssigned,
	NameGreedyWithinBound,
	NameGreedyColor,
	NameWindowPlaced,
	NameWindowRetries,
	NameWindowColor,
	NameWindowWin,
	NameBucketInsertions,
	NameBucketOverflows,
	NameBucketActivations,
	NameBucketScheduled,
	NameBucketLevel,
	NameBatchSessions,
	NameBatchSessionPushes,
	NameBatchSessionCosts,
	NameBatchSessionRebuilds,
	NameBatchTourCacheHits,
	NameBatchTourCacheMisses,
	NameDepgraphLiveVertices,
	NameDepgraphArenaBytes,
	NameDepgraphEdgesReused,
	NameDistnetMessages,
	NameDistnetMsgDistance,
	NameDistnetMsgBytes,
	NameDistnetInjects,
	NameDistnetWakes,
	NameDistnetDropped,
	NameDistnetDuplicated,
	NameDistnetDelayed,
	NameDistnetNodeQueue,
	NameDistbucketDiscoveries,
	NameDistbucketReports,
	NameDistbucketInsertions,
	NameDistbucketOverflows,
	NameDistbucketActivations,
	NameDistbucketReserves,
	NameDistbucketGrants,
	NameDistbucketReleases,
	NameDistbucketRetries,
	NameDistbucketTimeouts,
	NameDistbucketAbandoned,
	NameDistbucketBucketLevel,
}

// registeredPrefixes lists the dynamic name families.
var registeredPrefixes = []string{
	NamePrefixDistnetMsg,
}

var registeredSet = func() map[string]bool {
	s := make(map[string]bool, len(registeredNames))
	for _, n := range registeredNames {
		s[n] = true
	}
	return s
}()

// RegisteredNames returns a copy of every static registered metric name.
func RegisteredNames() []string {
	return append([]string(nil), registeredNames...)
}

// RegisteredPrefixes returns a copy of the dynamic name-family prefixes.
func RegisteredPrefixes() []string {
	return append([]string(nil), registeredPrefixes...)
}

// IsRegisteredName reports whether name is registered, either exactly or
// under a dynamic family prefix (with a non-empty suffix).
func IsRegisteredName(name string) bool {
	if registeredSet[name] {
		return true
	}
	for _, p := range registeredPrefixes {
		if len(name) > len(p) && name[:len(p)] == p {
			return true
		}
	}
	return false
}
