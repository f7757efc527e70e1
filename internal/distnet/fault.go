package distnet

// Fault injection for the synchronous network. A FaultPlan describes an
// unreliable network deterministically: every per-message decision (drop,
// duplicate, extra delay) is resolved from a stateless hash RNG keyed on
// (send step, src, dst, per-source sequence number), so any two runs with
// the same plan produce byte-identical traces. Node crashes are static
// windows declared up front, also deterministic.
//
// Semantics (the recovery contract internal/distbucket is written against):
//
//   - Faults apply only to messages between distinct nodes. Self-sends and
//     wake timers are node-local and never faulted: a crashed node models a
//     process restart that recovers durable state and re-arms its timers,
//     so handlers keep running on wakes while the node's network is down.
//   - A message is lost if its sender or receiver is crashed (at send and
//     arrival time respectively), or by the Drop coin.
//   - A duplicated message yields two deliveries with independently rolled
//     extra delays; receivers must deduplicate.
//   - Extra delay is uniform in [0, MaxJitter] steps on top of the
//     distance-based latency, per delivered copy.
//   - InjectAt is NOT faulted by the engine: external inputs are driver
//     events, and the driver decides what a crashed node's arrivals mean
//     (internal/distbucket abandons them, reporting the transactions).

import (
	"fmt"
	"strconv"
	"strings"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// CrashWindow takes a node off the network for [From, To] inclusive.
type CrashWindow struct {
	Node     graph.NodeID
	From, To core.Time
}

// FaultPlan is a deterministic description of an unreliable network. The
// zero value is the failure-free synchronous model of the paper.
type FaultPlan struct {
	// Seed keys the per-message hash RNG. Two runs with the same plan and
	// the same protocol traffic make identical fault decisions.
	Seed int64
	// Drop is the per-message loss probability in [0, 1].
	Drop float64
	// Duplicate is the per-message duplication probability in [0, 1].
	Duplicate float64
	// MaxJitter bounds the extra per-message delivery delay: each delivered
	// copy is delayed by a uniform draw from [0, MaxJitter] steps.
	MaxJitter core.Time
	// Crashes lists node outage windows.
	Crashes []CrashWindow
}

// Validate checks the plan against an n-node graph. It refuses a Drop or
// Duplicate rate outside [0, 1] (NaN included), a negative MaxJitter, and
// a crash window whose From exceeds its To or whose node lies outside
// [0, n). New calls it.
func (p *FaultPlan) Validate(n int) error {
	for _, r := range []struct {
		name string
		v    float64
	}{{"drop", p.Drop}, {"duplicate", p.Duplicate}} {
		if !(r.v >= 0 && r.v <= 1) { // false for NaN
			return fmt.Errorf("distnet: %s rate %v outside [0, 1]", r.name, r.v)
		}
	}
	if p.MaxJitter < 0 {
		return fmt.Errorf("distnet: negative max jitter %d", p.MaxJitter)
	}
	for _, w := range p.Crashes {
		if w.Node < 0 || int(w.Node) >= n {
			return fmt.Errorf("distnet: crash window on node %d, outside [0, %d)", w.Node, n)
		}
		if w.From > w.To {
			return fmt.Errorf("distnet: crash window on node %d runs from t=%d to t=%d", w.Node, w.From, w.To)
		}
	}
	return nil
}

// Enabled reports whether the plan injects any fault at all; a disabled
// plan leaves the engine on its exact fault-free code path.
func (p *FaultPlan) Enabled() bool {
	return p.Drop > 0 || p.Duplicate > 0 || p.MaxJitter > 0 || len(p.Crashes) > 0
}

// CrashedAt reports whether node n is inside a crash window at time t.
func (p *FaultPlan) CrashedAt(n graph.NodeID, t core.Time) bool {
	for _, w := range p.Crashes {
		if w.Node == n && w.From <= t && t <= w.To {
			return true
		}
	}
	return false
}

// Salts separate the independent per-message decisions drawn from one key.
const (
	saltDrop uint64 = 0x9e3779b97f4a7c15
	saltDup  uint64 = 0xbf58476d1ce4e5b9
	saltJit  uint64 = 0x94d049bb133111eb // +copy index for duplicates
)

// mix64 is the splitmix64 finalizer: a cheap, well-distributed bijection.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// hash folds the message key into one 64-bit draw.
func (p *FaultPlan) hash(salt uint64, step core.Time, src, dst graph.NodeID, seq int64) uint64 {
	h := mix64(uint64(p.Seed) ^ salt)
	h = mix64(h ^ uint64(step))
	h = mix64(h ^ uint64(uint32(src))<<32 ^ uint64(uint32(dst)))
	h = mix64(h ^ uint64(seq))
	return h
}

// roll returns a uniform float64 in [0, 1) for the keyed decision.
func (p *FaultPlan) roll(salt uint64, step core.Time, src, dst graph.NodeID, seq int64) float64 {
	return float64(p.hash(salt, step, src, dst, seq)>>11) / float64(uint64(1)<<53)
}

// jitter returns the keyed extra delay in [0, MaxJitter].
func (p *FaultPlan) jitter(salt uint64, step core.Time, src, dst graph.NodeID, seq int64) core.Time {
	if p.MaxJitter <= 0 {
		return 0
	}
	return core.Time(p.hash(salt, step, src, dst, seq) % uint64(p.MaxJitter+1))
}

// ParseCrashes parses a crash-window flag of the form
// "node:from:to[,node:from:to...]" into CrashWindows, so every CLI passes
// through the same FaultPlan type instead of ad-hoc fault wiring.
func ParseCrashes(s string) ([]CrashWindow, error) {
	if s == "" {
		return nil, nil
	}
	var ws []CrashWindow
	for _, part := range strings.Split(s, ",") {
		fields := strings.Split(part, ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("distnet: crash window %q: want node:from:to", part)
		}
		var vals [3]int64
		for i, f := range fields {
			v, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("distnet: crash window %q: %v", part, err)
			}
			vals[i] = v
		}
		if vals[1] > vals[2] {
			return nil, fmt.Errorf("distnet: crash window %q: from exceeds to", part)
		}
		ws = append(ws, CrashWindow{Node: graph.NodeID(vals[0]), From: core.Time(vals[1]), To: core.Time(vals[2])})
	}
	return ws, nil
}
