#!/usr/bin/env bash
# Builds the command-to-photon benchmark from this checkout's sources and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload direct-play --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build artefact (binary, Go build
# cache, temp files) lands in .bench_build/ inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/home/go" GOTOOLCHAIN=local CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build" "$@"
