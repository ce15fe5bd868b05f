#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the root of the repository. The build cache, temporary files
# and the binary stay in .bench_build/ there, so nothing is written outside
# the checkout; the build fails (and nothing runs) without the repository
# around bench/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
# The go command keeps its settings and telemetry under the user config
# directory; this one is inside the checkout.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
(cd "$root/bench" && go build -o "$build/bench" .)
exec "$build/bench" "$@"
