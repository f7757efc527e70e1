// Package workload generates dynamic scheduling instances for the data-flow
// model: shared objects placed on a communication graph and transactions
// arriving over time, each requesting up to k objects (the scheduling
// problems of Sections III-C and IV-D of Busch et al., IPPS 2020).
//
// All generators are deterministic for a given Config.Seed.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// ArrivalKind selects the transaction arrival process.
type ArrivalKind int

const (
	// ArrivalBatch releases every transaction at time 0 (the offline batch
	// setting of Busch et al. SPAA'17, a special case of dynamic).
	ArrivalBatch ArrivalKind = iota
	// ArrivalPeriodic releases one transaction per node every Period steps
	// (round r arrives at r*Period). This is the open-loop stand-in for the
	// paper's closed loop in which a node issues its next transaction one
	// step after the previous one commits; see DESIGN.md §2.
	ArrivalPeriodic
	// ArrivalPoisson draws i.i.d. exponential inter-arrival gaps with mean
	// Period per node (integerized, minimum 1).
	ArrivalPoisson
	// ArrivalBursty releases rounds in bursts: all of a node's transactions
	// in burstLen consecutive rounds Period steps apart, then a gap of
	// 10*Period, repeating.
	ArrivalBursty
)

// burstLen is the number of consecutive rounds in one ArrivalBursty burst.
const burstLen = 4

func (k ArrivalKind) String() string {
	switch k {
	case ArrivalBatch:
		return "batch"
	case ArrivalPeriodic:
		return "periodic"
	case ArrivalPoisson:
		return "poisson"
	case ArrivalBursty:
		return "bursty"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// Popularity selects the object popularity distribution.
type Popularity int

const (
	// PopUniform samples objects uniformly.
	PopUniform Popularity = iota
	// PopZipf samples objects Zipf-distributed with exponent ZipfS.
	PopZipf
	// PopHotspot sends HotFrac of requests to the first HotSetSize objects.
	PopHotspot
)

func (p Popularity) String() string {
	switch p {
	case PopUniform:
		return "uniform"
	case PopZipf:
		return "zipf"
	case PopHotspot:
		return "hotspot"
	default:
		return fmt.Sprintf("Popularity(%d)", int(p))
	}
}

// Config parameterizes Generate.
type Config struct {
	K          int // objects requested per transaction (exactly K when possible)
	NumObjects int // number of shared objects (w in the paper)
	Rounds     int // transactions issued per node
	Arrival    ArrivalKind
	Period     core.Time // see ArrivalKind; default 1
	Pop        Popularity
	ZipfS      float64 // for PopZipf; default 1.1
	HotFrac    float64 // for PopHotspot; default 0.8
	HotSetSize int     // for PopHotspot; default max(1, NumObjects/16)
	Seed       int64
}

func (c *Config) defaults() error {
	if err := pickDefaults(c.K, c.NumObjects, &c.ZipfS, &c.HotFrac, &c.HotSetSize); err != nil {
		return err
	}
	if c.Rounds < 1 {
		return fmt.Errorf("workload: Rounds must be >= 1, got %d", c.Rounds)
	}
	if c.Period <= 0 {
		c.Period = 1
	}
	return nil
}

// pickDefaults checks, and defaults in place, the object-pick settings
// both configs share: k objects per transaction out of numObjects, drawn
// with the popularity knobs zipfS, hotFrac and hotSetSize. It refuses a
// setting the picker cannot draw from, whatever the popularity, and
// leaves a finite out-of-range knob at its default.
func pickDefaults(k, numObjects int, zipfS, hotFrac *float64, hotSetSize *int) error {
	if k < 1 {
		return fmt.Errorf("workload: K must be >= 1, got %d", k)
	}
	if numObjects < 1 {
		return fmt.Errorf("workload: NumObjects must be >= 1, got %d", numObjects)
	}
	if k > numObjects {
		return fmt.Errorf("workload: K=%d exceeds NumObjects=%d", k, numObjects)
	}
	if err := finite("ZipfS", *zipfS); err != nil {
		return err
	}
	if err := finite("HotFrac", *hotFrac); err != nil {
		return err
	}
	if *hotSetSize > numObjects {
		return fmt.Errorf("workload: HotSetSize=%d exceeds NumObjects=%d", *hotSetSize, numObjects)
	}
	if *zipfS <= 1 {
		*zipfS = 1.1
	}
	if *hotFrac <= 0 || *hotFrac > 1 {
		*hotFrac = 0.8
	}
	if *hotSetSize <= 0 {
		*hotSetSize = max(1, numObjects/16)
	}
	return nil
}

// finite refuses a NaN or infinite float setting, naming its field. No
// range check or default catches NaN, since every comparison with it is
// false, and math/rand's Zipf never returns at a NaN or infinite exponent.
func finite(field string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("workload: %s must be finite, got %g", field, v)
	}
	return nil
}

// Generate builds an instance on g according to cfg: NumObjects objects at
// uniformly random origins (created at time 0), and Rounds transactions per
// node, each requesting K distinct objects drawn from the popularity
// distribution, arriving per the arrival process.
func Generate(g *graph.Graph, cfg Config) (*core.Instance, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	in := &core.Instance{G: g, Objects: placeObjects(g, cfg.NumObjects, rng)}
	pick := newPicker(rng, cfg.Pop, cfg.NumObjects, cfg.ZipfS, cfg.HotFrac, cfg.HotSetSize)
	nodes := rng.Perm(g.N())
	arrivals := make([][]core.Time, len(nodes))
	for i := range nodes {
		arrivals[i] = arrivalSeries(cfg, rng)
	}
	id := core.TxID(0)
	for r := 0; r < cfg.Rounds; r++ {
		for i, node := range nodes {
			in.Txns = append(in.Txns, &core.Transaction{
				ID:      id,
				Node:    graph.NodeID(node),
				Arrival: arrivals[i][r],
				Objects: pick(cfg.K),
			})
			id++
		}
	}
	return in, in.Validate()
}

// arrivalSeries returns one node's non-decreasing arrival times, one per
// round.
func arrivalSeries(cfg Config, rng *rand.Rand) []core.Time {
	out := make([]core.Time, cfg.Rounds)
	switch cfg.Arrival {
	case ArrivalPeriodic:
		for r := range out {
			out[r] = core.Time(r) * cfg.Period
		}
	case ArrivalPoisson:
		var t core.Time
		for r := range out {
			out[r] = t
			gap := core.Time(rng.ExpFloat64() * float64(cfg.Period))
			if gap < 1 {
				gap = 1
			}
			t += gap
		}
	case ArrivalBursty:
		for r := range out {
			burst := r / burstLen
			within := r % burstLen
			out[r] = core.Time(burst)*cfg.Period*core.Time(burstLen+10) + core.Time(within)*cfg.Period
		}
	default: // ArrivalBatch: all zeros
	}
	return out
}

// newPicker returns a closure drawing k distinct objects out of
// numObjects from the popularity distribution pop, with settings that
// pickDefaults has checked.
func newPicker(rng *rand.Rand, pop Popularity, numObjects int, zipfS, hotFrac float64, hotSetSize int) func(k int) []core.ObjID {
	var draw func() core.ObjID
	switch pop {
	case PopZipf:
		z := rand.NewZipf(rng, zipfS, 1, uint64(numObjects-1))
		draw = func() core.ObjID { return core.ObjID(z.Uint64()) }
	case PopHotspot:
		draw = func() core.ObjID {
			if rng.Float64() < hotFrac {
				return core.ObjID(rng.Intn(hotSetSize))
			}
			return core.ObjID(rng.Intn(numObjects))
		}
	default:
		draw = func() core.ObjID { return core.ObjID(rng.Intn(numObjects)) }
	}
	return func(k int) []core.ObjID {
		seen := make(map[core.ObjID]bool, k)
		out := make([]core.ObjID, 0, k)
		for guard := 0; len(out) < k && guard < 1000*k; guard++ {
			o := draw()
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
		// Popularity skew can make k distinct draws improbable; fill
		// deterministically from the start of the ID space.
		for o := core.ObjID(0); len(out) < k; o++ {
			if !seen[o] {
				seen[o] = true
				out = append(out, o)
			}
		}
		return core.NormalizeObjects(out)
	}
}

// SingleObjectChain builds the adversarial single-hot-object workload used
// by the clique serialization experiments: every transaction requests
// object 0, one transaction per node, all arriving at time 0.
func SingleObjectChain(g *graph.Graph, origin graph.NodeID) (*core.Instance, error) {
	in := &core.Instance{
		G:       g,
		Objects: []*core.Object{{ID: 0, Origin: origin}},
	}
	for v := 0; v < g.N(); v++ {
		in.Txns = append(in.Txns, &core.Transaction{
			ID:      core.TxID(v),
			Node:    graph.NodeID(v),
			Objects: []core.ObjID{0},
		})
	}
	return in, in.Validate()
}

// OverlapChain builds transactions T_i requesting objects {i, i+1}: a
// dependency chain that stresses schedulers' handling of long conflict
// paths. One transaction per node, all arriving at time 0; object i
// originates at node i mod n.
func OverlapChain(g *graph.Graph) (*core.Instance, error) {
	n := g.N()
	in := &core.Instance{G: g}
	for i := 0; i < n; i++ {
		in.Objects = append(in.Objects, &core.Object{
			ID:     core.ObjID(i),
			Origin: graph.NodeID(i),
		})
	}
	for i := 0; i < n; i++ {
		objs := []core.ObjID{core.ObjID(i), core.ObjID((i + 1) % n)}
		in.Txns = append(in.Txns, &core.Transaction{
			ID:      core.TxID(i),
			Node:    graph.NodeID(i),
			Objects: core.NormalizeObjects(objs),
		})
	}
	return in, in.Validate()
}
