GO ?= go

.PHONY: all build test check vet fmt lint race bench bench-quick bench-scale bench-par fuzz-quick soak

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

# lint runs the dtmlint multichecker: the determinism, metric-name,
# pool-hygiene, and phase-purity analyzers in internal/analysis
# (parpurity proves every par.Runner.Map compute closure writes only
# worker-owned memory — see DESIGN.md §15). Zero findings is the gate;
# justified exceptions use //lint:ignore <analyzer> <reason>, or
# //par:owned <expr> <reason> at a blessed write. A directive that
# suppresses nothing is itself a finding, so exceptions cannot rot.
# CI asserts the whole run fits a 60s wall-clock budget and that the
# gate still fires on injected violations (scripts/lint_mutate.sh).
lint: build
	$(GO) run ./cmd/dtmlint ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# race covers the concurrent code and everything it touches: the tree
# warm-up in core.NewSim (internal/par fanning graph tree builds out over
# the per-source build locks) and the sched drivers that run it, the
# sweep runner's worker pool, and the engines and network packages whose
# identity tests run with the warm-up on. The root run drives the
# parallel-vs-sequential identity tests with the detector on.
race:
	$(GO) test -race ./internal/core/... ./internal/sched/... \
		./internal/par/... ./internal/distnet/... ./internal/distbucket/... \
		./internal/runner/... ./internal/graph/... \
		./internal/depgraph/... ./internal/pq/... \
		./internal/window/... ./internal/engine/...
	$(GO) test -race -run 'TestParallel|TestAdvanceToIncrements|TestEngineConformance' .

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-quick times the full experiment suite sequentially and on the
# parallel worker pool, verifies the outputs are byte-identical, and
# writes wall-clock numbers + speedup to BENCH_runner.json, plus the T11
# fault-injection sweep rows to BENCH_faults.json. Run bench-scale
# separately for the engine-comparison rows (CI runs both explicitly).
bench-quick: build
	$(GO) run ./cmd/dtmbench -exp all -quick -benchjson BENCH_runner.json >/dev/null
	$(GO) run ./cmd/dtmbench -quick -faultjson BENCH_faults.json
	$(GO) run ./cmd/dtmbench -quick -parjson BENCH_par.json
	$(GO) run ./cmd/dtmbench -quick -streamjson BENCH_stream.json

# bench-scale times the incremental conflict-index engine against the
# per-arrival rebuild oracle (greedy clique + bucket line, quick sizes
# n=64/256; the full n=1024 row runs without -quick) and writes
# ns/arrival and allocs/arrival per engine to BENCH_scale.json.
bench-scale: build
	$(GO) run ./cmd/dtmbench -quick -scalejson BENCH_scale.json

# bench-par times one large run (n=4096 quick; -quick off adds n=16384)
# on a fresh graph, sequentially and with the concurrent tree warm-up at
# P in {2,4,8}, asserts byte-identical decision logs, and writes
# min-of-runs wall-clock and speedups per engine/topology row to
# BENCH_par.json.
bench-par: build
	$(GO) run ./cmd/dtmbench -quick -parjson BENCH_par.json

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
# persistent conflict-index invariants, and the sessionized batch API's
# differential against the one-shot schedulers. The seed corpora also run
# as plain tests under `make test`.
fuzz-quick: build
	$(GO) test -run '^$$' -fuzz 'FuzzSmallestValid$$' -fuzztime 30s ./internal/coloring/
	$(GO) test -run '^$$' -fuzz 'FuzzSmallestValidMultiple$$' -fuzztime 30s ./internal/coloring/
	$(GO) test -run '^$$' -fuzz 'FuzzIndexInvariants$$' -fuzztime 30s ./internal/depgraph/
	$(GO) test -run '^$$' -fuzz 'FuzzBatchIncremental$$' -fuzztime 30s ./internal/batch/
	$(GO) test -run '^$$' -fuzz 'FuzzWindowDraws$$' -fuzztime 30s ./internal/window/
