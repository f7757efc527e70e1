// Fixture for the parpurity analyzer: compute closures handed to
// par.Runner.Map may write locals and param-indexed slots; everything
// else — captured state, globals, channel sends, metric emission, rand
// draws — is a finding, including writes buried behind a call chain.
package parpurity

import (
	"math/rand"

	"dtm/internal/obs"
	"dtm/internal/par"
)

type engine struct {
	r       *par.Runner
	met     *obs.Metrics
	results map[int]int
	total   int
}

// directWrite stages into a slot (fine) and then writes a captured map
// (the canonical contract violation).
func (e *engine) directWrite(items []int) {
	out := make([]int, len(items))
	e.r.Map(len(items), func(i, w int) {
		out[i] = items[i] * 2
		e.results[items[i]] = i // want `write to e\.results\[items\[i\]\] .* is not worker-owned`
	})
	_ = out
}

func (e *engine) tally(v int) { e.bump(v) }
func (e *engine) bump(v int)  { e.total += v }

// chainedWrite hides the shared write two call levels below the closure;
// the summary fixpoint still charges it to the compute phase.
func (e *engine) chainedWrite(items []int) {
	e.r.Map(len(items), func(i, w int) {
		e.tally(items[i]) // want `call to e\.tally reaches a compute-phase violation: write to e\.total`
	})
}

// notify communicates from inside the compute phase: forbidden
// regardless of where the channel came from.
func (e *engine) notify(items []int, done chan int) {
	e.r.Map(len(items), func(i, w int) {
		done <- i // want `channel send on done in a compute phase`
	})
}

// counted emits a metric per item: counts become schedule-dependent.
func (e *engine) counted(items []int) {
	c := e.met.Counter("fixture.count")
	e.r.Map(len(items), func(i, w int) {
		c.Add(1) // want `metric emission \(c\.Add\) in a compute phase`
	})
}

// jitter draws randomness inside the compute phase: even a seeded source
// observes the worker schedule through its draw order.
func (e *engine) jitter(items []int, rng *rand.Rand) {
	e.r.Map(len(items), func(i, w int) {
		_ = rng.Intn(10) // want `rand draw \(rng\.Intn\) in a compute phase`
	})
}

// reduce folds into a captured accumulator: a data race and a
// schedule-dependent result.
func (e *engine) reduce(items []int) int {
	sum := 0
	e.r.Map(len(items), func(i, w int) {
		sum += items[i] // want `assignment to captured variable sum in a compute phase`
	})
	return sum
}

// blessed shows the //par:owned escape hatch: the directive names the
// written expression and carries a reason, so the write passes.
func (e *engine) blessed(items []int) {
	e.r.Map(len(items), func(i, w int) {
		//par:owned e.results fixture: demonstrating a justified escape hatch
		e.results[items[i]] = i
	})
}

// staleDirective carries a blessing that excuses nothing; the directive
// itself is the finding.
func (e *engine) staleDirective(items []int) int {
	acc := 0
	for _, v := range items {
		//par:owned e.results fixture: nothing below writes shared state // want `stale //par:owned e\.results directive`
		acc += v
	}
	return acc
}

// dynamic hands Map a function value the analyzer cannot resolve: that
// unverifiability is itself a finding.
func (e *engine) dynamic(items []int, f func(i, w int)) {
	e.r.Map(len(items), f) // want `cannot resolve the compute function`
}

// viaLocal binds the closure to a local first; resolution follows the
// binding.
func (e *engine) viaLocal(items []int) {
	body := func(i, w int) {
		e.total++ // want `write to e\.total .* is not worker-owned`
	}
	e.r.Map(len(items), body)
}

func pureCompute(i, w int) { _ = i * w }

// viaNamed passes a declared function: resolved and verified like a
// literal.
func (e *engine) viaNamed(items []int) {
	e.r.Map(len(items), pureCompute)
}
