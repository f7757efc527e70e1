GO ?= go

.PHONY: all build test check vet fmt lint race bench bench-quick fuzz-quick soak

all: check

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# check is the CI gate: static checks (vet, gofmt, the dtmlint analyzer
# suite) plus the race detector over the concurrent code (the tree
# warm-up and the sweep runner's worker pool) and the full test suite.
check: vet fmt lint race test

vet:
	$(GO) vet ./...

# lint runs the dtmlint multichecker: the determinism (detclock,
# detrange) and goroutine-site (gosites) analyzers in internal/analysis
# (gosites allows go statements only in graph.WarmTrees and
# runner.Sweep.Run — see DESIGN.md §15). Zero findings is the gate; an
# exception is an entry in detclock's or gosites' function allowlist,
# never a comment. Metric names need no analyzer: obs.Name keeps an
# unregistered one from compiling. CI asserts the whole run fits a 60s
# wall-clock budget and that the gates still fire on injected violations
# (scripts/lint_mutate.sh, which also probes the race test below the tree
# warm-up and the obs.Name type).
lint: build
	$(GO) run ./cmd/dtmlint ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race covers the concurrent code and everything it touches: the tree
# warm-up (graph.WarmTrees, called by core.NewSim) and the sched drivers
# that run it, the sweep runner's worker pool, and the engines and
# network packages whose identity tests run with the warm-up on. The root
# run drives the parallel-vs-sequential identity tests with the detector
# on.
race:
	$(GO) test -race ./internal/core/... ./internal/sched/... \
		./internal/distnet/... ./internal/distbucket/... \
		./internal/runner/... ./internal/graph/... \
		./internal/depgraph/... ./internal/pq/... \
		./internal/window/... ./internal/engine/...
	$(GO) test -race -run 'TestParallel|TestAdvanceToIncrements|TestEngineConformance' .

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-quick writes the three checked-in BENCH artifacts: the T11
# fault sweep and the T14 stability frontier at quick sizes
# (BENCH_faults.json, BENCH_stream.json), and the timing table
# (BENCH_perf.json: greedy and both bucket modes against the rebuild
# oracle at n up to 1024, the tree warm-up at P in {1,2,4,8} on n=4096,
# and the window engine with a ratio snapshot at every arrival time).
# Every variant of a timing case must yield byte-identical decisions and
# results, or nothing is written. The timing table takes several
# minutes.
bench-quick: build
	$(GO) run ./cmd/dtmbench -exp T11 -quick -json BENCH_faults.json
	$(GO) run ./cmd/dtmbench -exp T14 -quick -json BENCH_stream.json
	$(GO) run ./cmd/dtmbench -perfjson BENCH_perf.json

# soak is the bounded-memory endurance gate: ten million streaming
# arrivals through the greedy engine on a 4096-node star, with the flat
# live-state assertion (-assertflat fails the run unless the in-flight
# queue and the engine's live window plateau between the first and
# second half of the run). Takes a few minutes; CI runs a short version.
soak: build
	$(GO) run ./cmd/dtmsim -topology star -alpha 4095 -beta 1 -sched greedy \
		-stream poisson -rate 8 -arrivals 10000000 -assertflat -progress 2000000

# fuzz-quick gives each native fuzzer a short budget: the coloring
# interval sweeps (every color decision funnels through them), the
# persistent conflict-index invariants, the sessionized batch API's
# differential against the one-shot schedulers, the incremental
# lower bound's differential against lowerbound.Estimate, the
# canonical metric-closure MST's insertion and deletion against Build and
# the cycle property, the simulator's per-leg motion against the frozen
# per-hop reference, and trace.Read, whose parses must validate and render
# a timeline without a panic. The seed corpora also run as plain tests
# under `make test`.
fuzz-quick: build
	$(GO) test -run '^$$' -fuzz 'FuzzSmallestValid$$' -fuzztime 30s ./internal/coloring/
	$(GO) test -run '^$$' -fuzz 'FuzzSmallestValidMultiple$$' -fuzztime 30s ./internal/coloring/
	$(GO) test -run '^$$' -fuzz 'FuzzIndexInvariants$$' -fuzztime 30s ./internal/depgraph/
	$(GO) test -run '^$$' -fuzz 'FuzzBatchIncremental$$' -fuzztime 30s ./internal/batch/
	$(GO) test -run '^$$' -fuzz 'FuzzWindowDraws$$' -fuzztime 30s ./internal/window/
	$(GO) test -run '^$$' -fuzz 'FuzzTracker$$' -fuzztime 30s ./internal/lowerbound/
	$(GO) test -run '^$$' -fuzz 'FuzzMST$$' -fuzztime 30s ./internal/graph/
	$(GO) test -run '^$$' -fuzz 'FuzzLegsMatchHops$$' -fuzztime 30s ./internal/core/
	$(GO) test -run '^$$' -fuzz 'FuzzTraceRead$$' -fuzztime 20s ./internal/trace/
