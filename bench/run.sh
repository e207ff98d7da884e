#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under <checkout>/.bench_build:
# the Go build cache, the binary, temporary WAL directories and trace files.
# The benchmark is its own module (bench/go.mod) that replaces the module
# "aqua" with the checkout it sits in, so it always measures the source tree
# around it; with no such tree (a directory holding only BENCHMARK.json and
# bench/) the build fails and this script exits non-zero without a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

# The toolchain keeps its cache, temporary files, module cache and telemetry
# counters under the checkout too, and fetches nothing.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -C "$here" -o "$out/aquabench" .
cd "$root"
exec "$out/aquabench" "$@"
