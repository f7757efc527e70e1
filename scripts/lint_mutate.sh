#!/usr/bin/env sh
# lint_mutate.sh — mutation smoke test for the concurrency and lint gates.
#
# A gate that never fires is indistinguishable from one that works, so CI
# injects one known violation per check into a temporary copy of the module
# and asserts the check rejects each:
#
#   1. race probe: a shared-map write two call levels below the worker
#      loop of graph.WarmTrees must fail the race test the warm-up's
#      contract rests on (go test -race, TestTreeWarmupMatchesLazyTrees);
#   2. detclock:  a wall-clock time.Now read in an engine package;
#   3. obs.Name:  a metric name one typo away from a real one, passed as a
#      string, must not compile;
#   4. gosites:   a goroutine started outside the allowlisted sites;
#   5. detrange:  map keys appended in iteration order in the window engine.
#
# Exit 0 iff every injection is caught. Runs from any directory.
set -eu

ROOT=$(cd "$(dirname "$0")/.." && pwd)
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

PRISTINE="$WORK/pristine"
COPY="$WORK/copy"
mkdir -p "$PRISTINE"
(cd "$ROOT" && tar --exclude='.git' --exclude='testdata' -cf - .) | tar -C "$PRISTINE" -xf -

reset_copy() {
	rm -rf "$COPY"
	cp -r "$PRISTINE" "$COPY"
}

# expect_caught <analyzer> <description>: run dtmlint over the mutated
# copy; it must exit non-zero and name the analyzer.
expect_caught() {
	analyzer=$1
	desc=$2
	out="$WORK/out.txt"
	if (cd "$COPY" && go run ./cmd/dtmlint ./...) >"$out" 2>&1; then
		echo "FAIL: $desc — dtmlint exited 0; the $analyzer gate is blind" >&2
		cat "$out" >&2
		exit 1
	fi
	if ! grep -q "$analyzer" "$out"; then
		echo "FAIL: $desc — dtmlint failed but not via $analyzer:" >&2
		cat "$out" >&2
		exit 1
	fi
	echo "ok: $desc caught by $analyzer"
}

# --- 1. race probe: shared write two call levels below the warm-up.
reset_copy
cat >"$COPY/internal/graph/zz_probe.go" <<'EOF'
package graph

var lintProbeSeen = map[int]int{}

func (g *Graph) lintProbe(v int) { g.lintProbeDeep(v) }

func (g *Graph) lintProbeDeep(v int) { lintProbeSeen[v]++ }
EOF
sed -i '0,/g\.tree(NodeID(v))/s//g.lintProbe(v)\n\t\t\t\tg.tree(NodeID(v))/' "$COPY/internal/graph/graph.go"
grep -q 'g.lintProbe(v)' "$COPY/internal/graph/graph.go" || {
	echo "FAIL: probe call not injected; graph.go anchor moved" >&2
	exit 1
}
out="$WORK/out.txt"
if (cd "$COPY" && go test -race -count=1 -run TestTreeWarmupMatchesLazyTrees ./internal/core) >"$out" 2>&1; then
	echo "FAIL: shared-map write below the warm-up — the race test passed; the race probe is blind" >&2
	cat "$out" >&2
	exit 1
fi
if ! grep -q 'DATA RACE' "$out" || ! grep -q 'lintProbeDeep' "$out"; then
	echo "FAIL: shared-map write below the warm-up — the race test failed, but not on a race in the probe:" >&2
	cat "$out" >&2
	exit 1
fi
echo "ok: shared-map write below the tree warm-up caught by go test -race"

# --- 2. detclock: wall-clock read in an engine package.
reset_copy
cat >"$COPY/internal/greedy/zz_clock.go" <<'EOF'
package greedy

import "time"

func lintMutateClock() time.Time { return time.Now() }
EOF
expect_caught detclock "time.Now in an engine package"

# --- 3. obs.Name: metric name one typo off the registry, as a string.
reset_copy
cat >"$COPY/internal/greedy/zz_metric.go" <<'EOF'
package greedy

import "dtm/internal/obs"

func lintMutateMetric(m *obs.Metrics) { m.Counter("greedy.colorr").Inc() }
EOF
out="$WORK/out.txt"
if (cd "$COPY" && go build ./internal/greedy) >"$out" 2>&1; then
	echo "FAIL: unregistered metric name — the package built; obs.Name accepts a string" >&2
	exit 1
fi
if ! grep -q 'obs\.Name' "$out"; then
	echo "FAIL: unregistered metric name — the build failed, but not on obs.Name:" >&2
	cat "$out" >&2
	exit 1
fi
echo "ok: unregistered metric name caught by the obs.Name type"

# --- 4. gosites: a goroutine outside the allowlisted sites.
reset_copy
cat >"$COPY/internal/greedy/zz_go.go" <<'EOF'
package greedy

func lintMutateGo() { go func() {}() }
EOF
expect_caught gosites "go statement outside the allowlisted sites"

# --- 5. detrange: map-ordered append, unsorted, in the window engine.
reset_copy
cat >"$COPY/internal/window/zz_range.go" <<'EOF'
package window

func lintMutateRange(m map[int]int) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
EOF
expect_caught detrange "map-ordered append in the window engine"

echo "lint_mutate: all 5 injections caught"
