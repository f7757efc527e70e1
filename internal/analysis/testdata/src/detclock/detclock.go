// Fixture for the detclock analyzer: wall-clock and global-rand reads
// are findings; seeded rand and simulated time are not.
package detclock

import (
	"math/rand"
	randv2 "math/rand/v2"
	"time"
)

func wallClock() time.Time {
	return time.Now() // want `wall-clock time\.Now in engine package`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `wall-clock time\.Since in engine package`
}

func sleepy() {
	time.Sleep(time.Millisecond) // want `wall-clock time\.Sleep in engine package`
}

func globalRand() int {
	return rand.Intn(10) // want `global math/rand source via rand\.Intn`
}

// seeded draws from an explicitly seeded generator: allowed.
func seeded(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(10)
}

// newArrivalSource mirrors the streaming workload generator constructors
// (workload.NewPoissonSource and friends): the constructor binds a seed
// once and every later draw goes through the seeded generator's methods,
// so nothing here is a finding.
func newArrivalSource(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 { return rng.ExpFloat64() }
}

// globalArrivals is the broken version of the same generator: package-
// level draws come from the unseeded global source, so two runs of one
// instance diverge.
func globalArrivals() float64 {
	return rand.ExpFloat64() // want `global math/rand source via rand\.ExpFloat64`
}

// seededV2 uses the math/rand/v2 seeded constructors, which are equally
// deterministic: allowed.
func seededV2(seed uint64) int {
	rng := randv2.New(randv2.NewPCG(seed, seed))
	chacha := randv2.New(randv2.NewChaCha8([32]byte{byte(seed)}))
	return rng.IntN(10) + chacha.IntN(10)
}

// globalV2 draws from math/rand/v2's global source: still a finding.
func globalV2() int {
	return randv2.IntN(10) // want `global math/rand source via rand\.IntN`
}

// simTime advances simulated time, which is the sanctioned clock.
func simTime(now int64) int64 {
	return now + 1
}

// takeSnapshot has an allowlisted name, but not the allowlisted package:
// the allowlist names functions by their full path.
func takeSnapshot() int64 {
	return time.Now().UnixNano() // want `wall-clock time\.Now in engine package`
}

// tickers exercises the timer-construction family: After, Tick,
// NewTicker, NewTimer, and AfterFunc all schedule wall-clock firings.
func tickers() {
	<-time.After(time.Millisecond)         // want `wall-clock time\.After in engine package`
	_ = time.Tick(time.Second)             // want `wall-clock time\.Tick in engine package`
	tk := time.NewTicker(time.Second)      // want `wall-clock time\.NewTicker in engine package`
	tm := time.NewTimer(time.Second)       // want `wall-clock time\.NewTimer in engine package`
	time.AfterFunc(time.Second, func() {}) // want `wall-clock time\.AfterFunc in engine package`
	// Re-arming re-enters the wall clock; Stop only cancels and is fine.
	tk.Reset(time.Second) // want `wall-clock time\.Ticker\.Reset in engine package`
	tm.Reset(time.Second) // want `wall-clock time\.Timer\.Reset in engine package`
	tk.Stop()
	tm.Stop()
}
