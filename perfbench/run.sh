#!/usr/bin/env bash
# Builds cmd/serve, cmd/predict and the perfbench program from the checkout
# into .bench_build/, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload ingest_durable --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Every file it writes (Go build
# cache, binaries, state directories, spans) stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/serve ] || [ ! -d cmd/predict ]; then
    echo "perfbench: run from the root of a repository checkout (no go.mod, cmd/serve or cmd/predict here)" >&2
    exit 2
fi

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
export GOTELEMETRY=off

go build -o "$build/bin/serve" ./cmd/serve
go build -o "$build/bin/predict" ./cmd/predict
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" "$@"
