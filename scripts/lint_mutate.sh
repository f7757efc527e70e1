#!/usr/bin/env sh
# lint_mutate.sh — mutation smoke test for the dtmlint gate.
#
# A lint gate that never fires is indistinguishable from one that works,
# so CI injects one known violation per analyzer family into a scratch
# copy of the module and asserts dtmlint rejects each:
#
#   1. parpurity: a shared-map write two call levels below the tree
#      warm-up closure in core.NewSim (the contract the analyzer exists
#      to prove);
#   2. detclock:  a wall-clock time.Now read in an engine package;
#   3. obsnames:  an unregistered metric name one typo away from a real one.
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

# --- 1. parpurity: shared write two call levels below a compute closure.
reset_copy
cat >"$COPY/internal/core/zz_probe.go" <<'EOF'
package core

var lintProbeSeen = map[int]int{}

func (s *Sim) lintProbe(i int) { s.lintProbeDeep(i) }

func (s *Sim) lintProbeDeep(i int) { lintProbeSeen[i]++ }
EOF
sed -i '0,/g\.Dist(v, v)/s//s.lintProbe(i)\n\t\t\tg.Dist(v, v)/' "$COPY/internal/core/sim.go"
grep -q 's.lintProbe(i)' "$COPY/internal/core/sim.go" || {
	echo "FAIL: probe call not injected; sim.go anchor moved" >&2
	exit 1
}
expect_caught parpurity "shared-map write behind a two-level call chain"

# --- 2. detclock: wall-clock read in an engine package.
reset_copy
cat >"$COPY/internal/greedy/zz_clock.go" <<'EOF'
package greedy

import "time"

func lintMutateClock() time.Time { return time.Now() }
EOF
expect_caught detclock "time.Now in an engine package"

# --- 3. obsnames: metric name one typo off the registry.
reset_copy
cat >"$COPY/internal/greedy/zz_metric.go" <<'EOF'
package greedy

import "dtm/internal/obs"

func lintMutateMetric(m *obs.Metrics) { m.Counter("greedy.colorr").Inc() }
EOF
expect_caught obsnames "unregistered metric name"

echo "lint_mutate: all 3 injections caught"
