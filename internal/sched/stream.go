package sched

// The drive core: the one event loop behind every driver. A run is one
// synchronous process — serve wakes, advance to the next arrival or wake,
// deliver the arrival batch — and the drivers differ only in where
// arrivals come from: the finite instance alone (Run), a lazily-pulled
// workload.Source (RunStream), or a feedback stream whose next arrival is
// gated on commits (RunClosedLoop).
// The loop holds no per-transaction history of its own (with ratio
// snapshots on, which RunStream never turns on, it holds the live
// transactions), so with Sim retirement enabled (RunStream's default) a
// run's live state is bounded by the in-flight window no matter how many
// arrivals stream through.

import (
	"fmt"
	"sort"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/workload"
)

// arrivalStream feeds the drive loop. Implementations must yield
// non-decreasing peek times; pop is called only while peek equals the
// current step and returns the next transaction, built with the dense ID
// the driver hands it.
type arrivalStream interface {
	// peek returns the time of the next pending arrival, if any.
	peek() (core.Time, bool)
	// pop builds the next pending arrival as a transaction with the given
	// dense ID. The driver adds it to the sim and delivers it.
	pop(id core.TxID) (*core.Transaction, error)
	// observe runs after every sim advance — the feedback stream's hook
	// for turning fresh commits into new pending arrivals.
	observe(sim *core.Sim) error
	// exhausted reports that no arrival is pending now or later.
	exhausted() bool
	// feedback reports that future arrivals hinge on engine progress, so
	// the drive loop must also advance to internal sim events.
	feedback() bool
}

// noArrivals is the empty stream: every arrival comes from the instance.
type noArrivals struct{}

func (noArrivals) peek() (core.Time, bool) { return 0, false }
func (noArrivals) pop(core.TxID) (*core.Transaction, error) {
	return nil, fmt.Errorf("sched: pop from an empty stream")
}
func (noArrivals) observe(*core.Sim) error { return nil }
func (noArrivals) exhausted() bool         { return true }
func (noArrivals) feedback() bool          { return false }

// abandoned returns the transactions s gave up on, through the optional
// Abandoned method (see Scheduler); nil for schedulers without one.
func abandoned(s Scheduler) []core.TxID {
	if ab, ok := s.(interface{ Abandoned() []core.TxID }); ok {
		return ab.Abandoned()
	}
	return nil
}

// slowFactor returns the object speed s runs at through the optional
// SlowFactor method (see Scheduler); 0, full speed, for schedulers
// without one.
func slowFactor(s Scheduler) int {
	if sf, ok := s.(interface{ SlowFactor() int }); ok {
		return sf.SlowFactor()
	}
	return 0
}

// drive is the shared start path and loop. It threads s's object speed
// into the sim options (unless Sim.SlowFactor is set), builds the sim on
// the run's one registry, opts.Obs, and starts s, then pumps instance
// arrivals and the stream into the scheduler in time order until both
// are exhausted and no wake is pending. Finally it checks that every
// transaction was scheduled or abandoned and drains the sim. onBatch,
// when set, runs after each delivered batch with the number of
// transactions issued so far. drive returns the sim (nil only if the run
// never started) and the ratio snapshots; the callers build the results.
func drive(in *core.Instance, s Scheduler, stream arrivalStream, opts Options,
	onBatch func(sim *core.Sim, issued int) error) (*core.Sim, []snapshot, error) {
	simOpts := opts.Sim
	if simOpts.SlowFactor == 0 {
		simOpts.SlowFactor = slowFactor(s)
	}
	sim, err := core.NewSim(in, simOpts, opts.Obs)
	if err != nil {
		return nil, nil, err
	}
	dm := newDriverMetrics(opts.Obs)
	env := &Env{Sim: sim, G: in.G, Obs: opts.Obs}
	if err := s.Start(env); err != nil {
		return nil, nil, fmt.Errorf("sched: %s start: %w", s.Name(), err)
	}

	var snaps []snapshot
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 1
	}
	var live *liveSet
	if snapEvery > 0 {
		live = newLiveSet(in.G)
	}
	snapCount := 0
	deliver := func(t core.Time, txns []*core.Transaction) error {
		if live != nil {
			if snapCount%snapEvery == 0 {
				snaps = append(snaps, takeSnapshot(sim, t, txns, live, dm))
			} else {
				live.add(txns)
			}
		}
		snapCount++
		dm.arrivals.Add(int64(len(txns)))
		if err := s.OnArrive(txns); err != nil {
			return fmt.Errorf("sched: %s OnArrive(t=%d): %w", s.Name(), t, err)
		}
		return nil
	}

	instArr, instGroups := in.ArrivalGroups()
	ai := 0
	// buf joins a time's stream arrivals to its instance group. It is
	// reused at every arrival time: OnArrive's slice is valid only during
	// the call, so no engine keeps it.
	var buf []*core.Transaction
	nextID := core.TxID(len(in.Txns))
	// Progress guard: consecutive iterations that neither deliver a batch
	// nor commit anything indicate a scheduler livelock. (A fixed
	// iteration cap would bound run length; soak runs exceed any sane one.)
	idle := 0
	lastDone := -1
	for {
		// Serve due scheduler wakes at the current time.
		now := sim.Now()
		for wg := 0; ; wg++ {
			if wg > 1<<20 {
				return sim, snaps, fmt.Errorf("sched: %s keeps requesting wake at t=%d without progress", s.Name(), now)
			}
			w, ok := s.NextWake()
			if !ok || w > now {
				break
			}
			if w < now {
				return sim, snaps, fmt.Errorf("sched: %s requested wake at t=%d in the past (now t=%d)", s.Name(), w, now)
			}
			dm.wakeups.Inc()
			if err := s.OnWake(); err != nil {
				return sim, snaps, fmt.Errorf("sched: %s OnWake(t=%d): %w", s.Name(), now, err)
			}
		}
		if done, _, _, _ := sim.CommitStats(); done != lastDone {
			lastDone, idle = done, 0
		} else if idle++; idle > 1<<20 {
			return sim, snaps, fmt.Errorf("sched: %s drive loop stopped progressing at t=%d", s.Name(), now)
		}
		if ai >= len(instArr) && stream.exhausted() && stream.feedback() {
			// Feedback exhaustion means every issued transaction
			// committed; trailing wakes are moot.
			break
		}
		// Next event: an arrival (instance or stream), a scheduler wake,
		// or — in feedback mode, where arrivals hinge on commits — an
		// internal sim event. Once the arrivals run out, the open loop
		// keeps draining deferred scheduler work until no wake is left.
		t := core.Time(-1)
		take := func(x core.Time) {
			if t < 0 || x < t {
				t = x
			}
		}
		if ai < len(instArr) {
			take(instArr[ai])
		}
		if pt, ok := stream.peek(); ok {
			take(pt)
		}
		if w, ok := s.NextWake(); ok {
			take(w)
		}
		if stream.feedback() {
			if st, ok := sim.NextInternalEvent(); ok {
				take(st)
			}
		}
		if t < 0 {
			if ai >= len(instArr) && stream.exhausted() {
				break
			}
			return sim, snaps, fmt.Errorf("sched: %s stalled at t=%d with arrivals pending", s.Name(), now)
		}
		if err := sim.AdvanceTo(t); err != nil {
			return sim, snaps, err
		}
		if err := stream.observe(sim); err != nil {
			return sim, snaps, err
		}
		var group []*core.Transaction
		if ai < len(instArr) && instArr[ai] == t {
			group = instGroups[ai]
			ai++
		}
		batch := group
		for {
			pt, ok := stream.peek()
			if !ok || pt != t {
				break
			}
			tx, err := stream.pop(nextID)
			if err != nil {
				return sim, snaps, err
			}
			if err := sim.AddTransaction(tx); err != nil {
				return sim, snaps, err
			}
			nextID++
			if len(buf) == 0 {
				buf = append(buf, group...)
			}
			buf = append(buf, tx)
			batch = buf
		}
		if len(batch) > 0 {
			idle = 0
			if err := deliver(t, batch); err != nil {
				return sim, snaps, err
			}
			if onBatch != nil {
				if err := onBatch(sim, int(nextID)); err != nil {
					return sim, snaps, err
				}
			}
		}
		// Keep no delivered transaction alive through the grouping or buf.
		clear(group)
		clear(buf)
		buf = buf[:0]
	}
	// Surface any source error that exhausted the stream early (the
	// monotonicity check fails the run rather than truncating it).
	if err := stream.observe(sim); err != nil {
		return sim, snaps, err
	}
	// Every transaction still in the window must have a decision (retired
	// ones committed, which implies they were scheduled) unless the
	// scheduler gave up on it; abandoned ones must never execute.
	gaveUp := abandoned(s)
	skip := make(map[core.TxID]bool, len(gaveUp))
	for _, id := range gaveUp {
		skip[id] = true
	}
	for _, tx := range in.Txns {
		if _, ok := sim.Scheduled(tx.ID); !ok && !skip[tx.ID] {
			return sim, snaps, fmt.Errorf("sched: %s never scheduled transaction %d", s.Name(), tx.ID)
		}
	}
	return sim, snaps, sim.RunToCompletion(gaveUp...)
}

// harvestDecisions rebuilds the decision log from the sim's live window in
// decision-time order (the stable sort over ID order reproduces the online
// emission order).
func harvestDecisions(sim *core.Sim) []core.Decision {
	var decs []core.Decision
	for _, tx := range sim.Instance().Txns {
		exec, ok := sim.Scheduled(tx.ID)
		if !ok {
			continue
		}
		at, _ := sim.DecidedAt(tx.ID)
		decs = append(decs, core.Decision{Tx: tx.ID, Exec: exec, At: at})
	}
	sort.SliceStable(decs, func(i, j int) bool { return decs[i].At < decs[j].At })
	return decs
}

// pullStream adapts a workload.Source to the drive loop with a one-slot
// lookahead buffer and an arrival cap.
type pullStream struct {
	src    workload.Source
	max    int64 // 0 = uncapped
	count  int64 // arrivals pulled from the source
	lastAt core.Time
	buf    workload.Arrival
	has    bool
	done   bool
	err    error
}

func (p *pullStream) fill() {
	if p.has || p.done || p.err != nil {
		return
	}
	if p.max > 0 && p.count >= p.max {
		p.done = true
		return
	}
	a, ok := p.src.Next()
	if !ok {
		p.done = true
		return
	}
	if a.At < p.lastAt {
		p.err = fmt.Errorf("sched: source arrival at t=%d after one at t=%d (times must be non-decreasing)", a.At, p.lastAt)
		return
	}
	p.lastAt = a.At
	p.count++
	p.buf, p.has = a, true
}

func (p *pullStream) peek() (core.Time, bool) {
	p.fill()
	if !p.has {
		return 0, false
	}
	return p.buf.At, true
}

func (p *pullStream) pop(id core.TxID) (*core.Transaction, error) {
	p.fill()
	if p.err != nil {
		return nil, p.err
	}
	if !p.has {
		return nil, fmt.Errorf("sched: stream pop past exhaustion")
	}
	a := p.buf
	p.has = false
	return &core.Transaction{ID: id, Node: a.Node, Arrival: a.At, Objects: a.Objects}, nil
}

func (p *pullStream) observe(*core.Sim) error { return p.err }

func (p *pullStream) exhausted() bool {
	p.fill()
	return !p.has
}

func (p *pullStream) feedback() bool { return false }

// streamMetrics are the open-system driver's bounded-memory instruments.
type streamMetrics struct {
	queueLen   *obs.Gauge   // stream.queue_len
	windowTxns *obs.Gauge   // stream.window_txns
	retired    *obs.Counter // stream.retired
	liveState  *obs.Gauge   // stream.live_state
}

func newStreamMetrics(m *obs.Metrics) streamMetrics {
	return streamMetrics{
		queueLen:   m.Gauge(obs.NameStreamQueueLen),
		windowTxns: m.Gauge(obs.NameStreamWindowTxns),
		retired:    m.Counter(obs.NameStreamRetired),
		liveState:  m.Gauge(obs.NameStreamLiveState),
	}
}

// peakTrace tracks the running peak of a series in bounded memory: peaks
// per epoch of deliveries, pairwise-merged (doubling the epoch) whenever
// the trace would exceed 4096 entries. Good enough to compare the first
// and second half of a run without storing the series.
type peakTrace struct {
	epoch int
	n     int
	cur   int64
	peaks []int64
}

func (p *peakTrace) observe(v int64) {
	if p.epoch == 0 {
		p.epoch = 1
	}
	if v > p.cur {
		p.cur = v
	}
	if p.n++; p.n < p.epoch {
		return
	}
	p.peaks = append(p.peaks, p.cur)
	p.cur, p.n = 0, 0
	if len(p.peaks) >= 4096 {
		merged := p.peaks[:0]
		for i := 0; i+1 < len(p.peaks); i += 2 {
			m := p.peaks[i]
			if p.peaks[i+1] > m {
				m = p.peaks[i+1]
			}
			merged = append(merged, m)
		}
		p.peaks = merged
		p.epoch *= 2
	}
}

// stats returns the overall peak and the peaks of the first and second
// half of the observed series. With a single epoch both halves report it.
func (p *peakTrace) stats() (peak, firstHalf, secondHalf int64) {
	peaks := p.peaks
	if p.n > 0 {
		peaks = append(append([]int64(nil), peaks...), p.cur)
	}
	if len(peaks) == 0 {
		return 0, 0, 0
	}
	mid := (len(peaks) + 1) / 2
	for i, v := range peaks {
		if v > peak {
			peak = v
		}
		if i < mid {
			if v > firstHalf {
				firstHalf = v
			}
		} else if v > secondHalf {
			secondHalf = v
		}
	}
	if len(peaks) == 1 {
		secondHalf = firstHalf
	}
	return peak, firstHalf, secondHalf
}

// StreamOptions configure an open-system streaming run.
type StreamOptions struct {
	Sim core.SimOptions
	// Obs collects metrics as in Options.Obs, a private registry when nil;
	// the queue/window gauges and sojourn percentiles come out of it.
	Obs *obs.Metrics
	// MaxArrivals caps how many arrivals are pulled from the source.
	// Required (>0) for endless generative sources; 0 runs until the
	// source exhausts (finite-instance adapters).
	MaxArrivals int64
	// CollectDecisions keeps the whole history: it disables transaction
	// retirement, so every transaction stays in the window (O(arrivals)
	// memory), and harvests the full decision log into the result.
	CollectDecisions bool
}

// StreamResult summarizes an open-system run. Aggregates come from the
// engine's running commit stats, so they cover every transaction even
// after retirement.
type StreamResult struct {
	Scheduler string
	Arrivals  int64 // transactions pulled from the source
	Completed int64 // transactions committed
	Makespan  core.Time

	// Sojourn (commit - arrival) latency: exact max and mean, and
	// bucket-resolution percentiles from the core.commit_latency histogram.
	MaxSojourn  core.Time
	MeanSojourn float64
	SojournP50  int64
	SojournP95  int64
	SojournP99  int64

	// Queue length (issued - committed) and live-window size, sampled at
	// every delivered batch: overall peak plus first/second-half peaks —
	// the stability signal (a stable run's second half stops growing).
	QueuePeak            int64
	QueuePeakFirstHalf   int64
	QueuePeakSecondHalf  int64
	WindowPeak           int64
	WindowPeakFirstHalf  int64
	WindowPeakSecondHalf int64

	Retired   int64 // transactions dropped from the window
	TotalComm graph.Weight

	// Decisions is populated only under CollectDecisions.
	Decisions []core.Decision

	Failed  bool
	Err     error
	Metrics *obs.Snapshot
}

// RunStream drives a scheduler against a streaming source on graph g with
// the given shared objects: arrivals are pulled lazily as simulated time
// reaches them, committed transactions are retired from the engine window
// (unless CollectDecisions), and queue/sojourn/live-state series are recorded
// through obs. The scheduler sees exactly the same OnArrive/OnWake
// protocol as the finite driver.
func RunStream(g *graph.Graph, objects []*core.Object, src workload.Source, s Scheduler, opts StreamOptions) (*StreamResult, error) {
	if src == nil {
		return nil, fmt.Errorf("sched: RunStream needs a source")
	}
	if opts.MaxArrivals < 0 {
		return nil, fmt.Errorf("sched: RunStream MaxArrivals must be >= 0")
	}
	m := opts.Obs
	if m == nil {
		m = obs.New()
	}
	in := &core.Instance{G: g, Objects: objects}
	sm := newStreamMetrics(m)
	stream := &pullStream{src: src, max: opts.MaxArrivals}
	var queueTrace, windowTrace peakTrace
	ls, hasLS := s.(interface{ LiveStats() (int, int) })
	sinceRetire := 0
	onBatch := func(sim *core.Sim, issued int) error {
		done, _, _, _ := sim.CommitStats()
		q := int64(issued - done)
		sm.queueLen.Set(q)
		queueTrace.observe(q)
		if !opts.CollectDecisions {
			// Retire in batches so the window shifts stay amortized O(1)
			// per transaction: a shift costs O(live window) and frees at
			// least 512, so the per-transaction cost is O(1 + queue/512).
			if sinceRetire++; sinceRetire >= 32 {
				sinceRetire = 0
				if k := sim.RetireDone(512); k > 0 {
					sm.retired.Add(int64(k))
				}
			}
		}
		_, win := sim.LiveWindow()
		w := int64(win)
		sm.windowTxns.Set(w)
		windowTrace.observe(w)
		live := w
		if hasLS {
			a, b := ls.LiveStats()
			live += int64(a + b)
		}
		sm.liveState.Set(live)
		return nil
	}

	sim, _, err := drive(in, s, stream, Options{Sim: opts.Sim, SnapshotEvery: -1, Obs: m}, onBatch)
	if sim == nil {
		return nil, err
	}
	res := &StreamResult{Scheduler: s.Name() + "/stream", Arrivals: stream.count, Failed: err != nil, Err: err}
	count, makespan, maxLat, sumLat := sim.CommitStats()
	res.Completed = int64(count)
	res.Makespan = makespan
	res.MaxSojourn = maxLat
	if count > 0 {
		res.MeanSojourn = float64(sumLat) / float64(count)
	}
	retired, _ := sim.LiveWindow()
	res.Retired = int64(retired)
	res.TotalComm = sim.TotalComm()
	res.QueuePeak, res.QueuePeakFirstHalf, res.QueuePeakSecondHalf = queueTrace.stats()
	res.WindowPeak, res.WindowPeakFirstHalf, res.WindowPeakSecondHalf = windowTrace.stats()
	res.Metrics = m.Snapshot()
	if hv, ok := res.Metrics.Histograms[obs.NameCoreCommitLatency.String()]; ok {
		res.SojournP50 = hv.Quantile(0.50)
		res.SojournP95 = hv.Quantile(0.95)
		res.SojournP99 = hv.Quantile(0.99)
	}
	if opts.CollectDecisions {
		res.Decisions = harvestDecisions(sim)
	}
	return res, err
}
