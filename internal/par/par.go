// Package par is the runner behind the engine's one parallel site: the
// tree warm-up in core.NewSim, which builds every shortest-path tree of
// the topology concurrently when SimOptions.Parallel asks for workers.
// Every simulation step after that runs sequentially.
//
// The runner makes no ordering promises about when f(i) runs relative to
// f(j), so any work handed to Map must be order-free and must not write
// shared state: what it writes belongs in per-index slots, or in
// per-worker arenas addressed by the worker index Map passes in. See
// DESIGN.md §12.
//
// That contract is not left to convention: the parpurity analyzer
// (internal/analysis, run by `make lint`) traces every closure reachable
// from a Map call site through the module call graph and reports any
// write it cannot prove worker-owned — locals or param-indexed slice
// slots — along with channel sends, metric emission, and rand draws. A
// write that is safe for a structural reason the analyzer cannot see
// takes a //par:owned <expr> <reason> directive at the write; see
// DESIGN.md §15.
//
// The runner is deliberately tiny: no persistent goroutine pool, no
// channels, no metrics. Workers are spawned per Map call and claim fixed
// chunks of the index space from an atomic cursor, and an idle runner
// costs nothing. It also keeps the runner observability-free by
// construction: a Map call cannot perturb a run's metric state, which the
// byte-identity contract between sequential and parallel runs depends on.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner fans indexed work out over a bounded worker set. A nil *Runner
// is the sequential runner: Map runs inline on the caller's goroutine
// and Workers reports 1, so call sites gate parallelism with a single
// nil-producing constructor instead of branching themselves.
type Runner struct {
	workers int
}

// New returns a runner with the given worker bound. workers <= 0 uses
// GOMAXPROCS; workers == 1 is a valid (if pointless) bound of one.
func New(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: workers}
}

// FromOption translates the SimOptions.Parallel-style knob into a
// runner: 0 and 1 mean sequential (nil runner), N > 1 means N workers,
// and negative means GOMAXPROCS.
func FromOption(n int) *Runner {
	if n == 0 || n == 1 {
		return nil
	}
	return New(n)
}

// Workers returns the worker bound (1 for the nil sequential runner).
// Per-worker arenas sized by this value are always large enough for the
// worker indexes Map passes to f.
func (r *Runner) Workers() int {
	if r == nil {
		return 1
	}
	return r.workers
}

// Map invokes f(i, w) exactly once for every i in [0, n), where w is the
// index of the worker running that call (0 <= w < Workers()). On the nil
// runner, or when n < 2, every call runs inline in index order with
// w == 0. Otherwise min(Workers(), n) goroutines claim fixed-size chunks
// of the index space from a shared atomic cursor, so slow items do not
// pin the remaining work to one worker.
//
// f must treat all shared state as read-only; anything it writes must be
// confined to per-index slots or per-worker arenas — a contract the
// parpurity lint analyzer verifies interprocedurally at every call site
// (see the package comment). Map returns once every call has finished.
func (r *Runner) Map(n int, f func(i, w int)) {
	if n <= 0 {
		return
	}
	workers := r.Workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i, 0)
		}
		return
	}
	// Chunks trade scheduling overhead (one atomic per chunk) against
	// balance; 4 chunks per worker keeps the tail short without making
	// tiny maps pay per-item atomics.
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				start := int(atomic.AddInt64(&cursor, int64(chunk))) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				for i := start; i < end; i++ {
					f(i, w)
				}
			}
		}(w)
	}
	wg.Wait()
}
