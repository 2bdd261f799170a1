#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The binary and the Go build cache go to
# .bench_build/ in that root, so the run writes nothing outside it. Without
# the program's sources next to perfbench/ the build fails and the script
# exits non-zero before printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# The go command keeps its cache, module path and telemetry under the
# build directory, never fetches a toolchain or module, and ignores any
# user-level go env file.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
