package workload

// Streaming arrival sources for the open-system mode: instead of
// materializing a finite *core.Instance up front, a Source yields
// transactions lazily, one at a time, in non-decreasing arrival order.
// The sched.RunStream driver pulls from the source only as simulated time
// reaches each arrival, so a run over 10^7 arrivals never holds more than
// the live window in memory (the stability setting of Busch et al.,
// *Stable Scheduling in Transactional Memory*, 2022).
//
// All sources are deterministic for a given StreamConfig.Seed.

import (
	"fmt"
	"math/rand"
	"sort"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// Arrival is one streamed transaction request: at time At, node Node
// issues a transaction over the (sorted, deduplicated) object set Objects.
// The driver assigns the dense transaction ID.
type Arrival struct {
	Node    graph.NodeID
	At      core.Time
	Objects []core.ObjID
}

// Source produces arrivals lazily. Next returns the next arrival and true,
// or a zero Arrival and false when the source is exhausted (generative
// sources never are; the driver's MaxArrivals bounds the run).
//
// Contract: arrival times are non-decreasing across calls, and each
// Objects slice is sorted, deduplicated, and owned by the caller after
// Next returns.
type Source interface {
	Next() (Arrival, bool)
}

// StreamConfig parameterizes the generative sources. The object-pick knobs
// (K, NumObjects, Pop, ZipfS, HotFrac, HotSetSize) mirror Config and share
// its checks and defaults (pickDefaults).
type StreamConfig struct {
	K          int     // objects requested per transaction (exactly K when possible)
	NumObjects int     // number of shared objects (w in the paper)
	Rate       float64 // mean arrivals per time step, system-wide (λ); default 1
	Burst      int     // arrivals released together by the bursty source; default 8
	Pop        Popularity
	ZipfS      float64 // for PopZipf; default 1.1
	HotFrac    float64 // for PopHotspot; default 0.8
	HotSetSize int     // for PopHotspot; default max(1, NumObjects/16)
	Seed       int64
}

func (c *StreamConfig) defaults() error {
	if err := pickDefaults(c.K, c.NumObjects, &c.ZipfS, &c.HotFrac, &c.HotSetSize); err != nil {
		return err
	}
	if err := finite("Rate", c.Rate); err != nil {
		return err
	}
	if c.Rate < 0 {
		return fmt.Errorf("workload: Rate must be > 0, got %g", c.Rate)
	}
	if c.Rate == 0 {
		c.Rate = 1
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	return nil
}

// UniformObjects places num objects at seeded uniform-random origins of g,
// all created at time 0 — the object set to hand RunStream alongside a
// generative source (Generate does the same placement internally).
func UniformObjects(g *graph.Graph, num int, seed int64) []*core.Object {
	return placeObjects(g, num, rand.New(rand.NewSource(seed)))
}

// placeObjects places num objects at uniform-random origins of g drawn
// from rng, all created at time 0.
func placeObjects(g *graph.Graph, num int, rng *rand.Rand) []*core.Object {
	objs := make([]*core.Object, num)
	for i := range objs {
		objs[i] = &core.Object{
			ID:     core.ObjID(i),
			Origin: graph.NodeID(rng.Intn(g.N())),
		}
	}
	return objs
}

// poissonSource draws exponential inter-arrival gaps at system rate λ and
// assigns each arrival to a uniform issuing node.
type poissonSource struct {
	rng   *rand.Rand
	pick  func(k int) []core.ObjID
	k     int
	nodes int
	rate  float64
	clock float64 // continuous arrival clock, floored to core.Time
}

// NewPoissonSource returns an endless memoryless source: system-wide
// arrivals form a Poisson process of rate cfg.Rate per time step
// (integerized), each at a uniformly random issuing node, with object sets
// drawn from the configured popularity distribution.
func NewPoissonSource(g *graph.Graph, cfg StreamConfig) (Source, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &poissonSource{
		rng:   rng,
		pick:  newPicker(rng, cfg.Pop, cfg.NumObjects, cfg.ZipfS, cfg.HotFrac, cfg.HotSetSize),
		k:     cfg.K,
		nodes: g.N(),
		rate:  cfg.Rate,
	}, nil
}

func (s *poissonSource) Next() (Arrival, bool) {
	s.clock += s.rng.ExpFloat64() / s.rate
	return Arrival{
		Node:    graph.NodeID(s.rng.Intn(s.nodes)),
		At:      core.Time(s.clock),
		Objects: s.pick(s.k),
	}, true
}

// burstySource is the adversarial arrival pattern: nothing for a quiet
// period, then Burst arrivals released at the same step on a contiguous
// block of nodes (rotating around the ring of issuing nodes), so load
// slams one neighborhood at a time while the long-run rate stays λ.
type burstySource struct {
	rng      *rand.Rand
	pick     func(k int) []core.ObjID
	k        int
	nodes    int
	burst    int
	period   core.Time
	burstIdx int64
	within   int
}

// NewBurstySource returns an endless bursty source: every
// max(1, round(Burst/Rate)) steps it releases Burst simultaneous arrivals
// on a rotating contiguous node block, holding the long-run rate at
// cfg.Rate while maximizing instantaneous contention.
func NewBurstySource(g *graph.Graph, cfg StreamConfig) (Source, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	period := core.Time(float64(cfg.Burst)/cfg.Rate + 0.5)
	if period < 1 {
		period = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &burstySource{
		rng:    rng,
		pick:   newPicker(rng, cfg.Pop, cfg.NumObjects, cfg.ZipfS, cfg.HotFrac, cfg.HotSetSize),
		k:      cfg.K,
		nodes:  g.N(),
		burst:  cfg.Burst,
		period: period,
	}, nil
}

func (s *burstySource) Next() (Arrival, bool) {
	if s.within == s.burst {
		s.within = 0
		s.burstIdx++
	}
	node := (int(s.burstIdx)*s.burst + s.within) % s.nodes
	a := Arrival{
		Node:    graph.NodeID(node),
		At:      core.Time(s.burstIdx) * s.period,
		Objects: s.pick(s.k),
	}
	s.within++
	return a, true
}

// instanceSource replays a finite instance's transactions in (Arrival, ID)
// order, making the whole pre-streaming API one case of the new one.
type instanceSource struct {
	txns []*core.Transaction
	i    int
}

// NewInstanceSource adapts a finite instance into a Source: its
// transactions stream out ordered by (arrival time, ID) and the source
// exhausts after the last one. The instance's own object set must be
// passed to the driver separately (RunStream takes objects explicitly).
func NewInstanceSource(in *core.Instance) Source {
	txns := append([]*core.Transaction(nil), in.Txns...)
	sort.SliceStable(txns, func(i, j int) bool {
		if txns[i].Arrival != txns[j].Arrival {
			return txns[i].Arrival < txns[j].Arrival
		}
		return txns[i].ID < txns[j].ID
	})
	return &instanceSource{txns: txns}
}

func (s *instanceSource) Next() (Arrival, bool) {
	if s.i >= len(s.txns) {
		return Arrival{}, false
	}
	tx := s.txns[s.i]
	s.i++
	return Arrival{
		Node:    tx.Node,
		At:      tx.Arrival,
		Objects: append([]core.ObjID(nil), tx.Objects...),
	}, true
}
