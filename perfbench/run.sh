#!/usr/bin/env bash
# Builds the nxgraph load benchmark from the checkout it sits in and runs
# it. Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload serve-query --seed 1 --seconds 20 --trace 0
#
# Everything it compiles or writes stays under .bench_build/ in the
# repository root. Build output goes to stderr, so the last line on
# stdout is the benchmark's JSON result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/work" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its env file and telemetry under the user config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" -workdir "$out/work" "$@"
