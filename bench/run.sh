#!/usr/bin/env bash
# Builds the benchmark (its own module, importing the repository by a
# replace directive) and runs it. Everything the build writes stays inside
# the checkout, under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/dynamoth-bench" .)
cd "$root"
exec "$out/dynamoth-bench" "$@"
