#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, the binary and the
# traced run's spans go under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is written outside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp" "$build/config"

export GOCACHE=$build/gocache GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config
export GOPATH=$build/gopath GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=readonly

# Build under a private name and rename, so a concurrent invocation never
# executes a half-written binary.
bin=$build/perfbench
(cd "$here" && go build -o "$bin.$$" .)
mv -f "$bin.$$" "$bin"
exec "$bin" -spans "$build/spans" "$@"
