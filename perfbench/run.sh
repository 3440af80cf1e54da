#!/usr/bin/env bash
# Builds butterflyd and the perfbench binary from this checkout, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-hits --seed 1 --seconds 20 --trace 0
#
# Everything the run writes (Go build cache, binaries, stores, access
# logs) stays under the build directory: $CARGO_TARGET_DIR when set,
# else .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/butterflyd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/butterflyd and perfbench/)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=-mod=mod

go build -buildvcs=false -o "$out/butterflyd" ./cmd/butterflyd >&2
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2

exec "$out/perfbench" -daemon "$out/butterflyd" -workdir "$out/run-$$" "$@"
