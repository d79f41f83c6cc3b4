#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it from the
# repository root with the given arguments, e.g.
#   bash perfbench/run.sh --workload viewupdate --seed 1 --seconds 45 --trace 0
# The build output and the Go build cache stay inside the tree, under
# .bench_build/. The build needs no network: the module's only dependency is
# the enclosing tree (a replace directive), so a copy holding only this
# directory fails to build and exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .) >&2
# go build rewrites the binary every time; flush it now, so its writeback
# does not land on the timed region's fsyncs.
sync "$out/perfbench"
cd "$root"
exec "$out/perfbench" "$@"
