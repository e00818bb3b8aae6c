#!/usr/bin/env bash
# Builds and runs the repository benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload serve-single --seed 1 --seconds 20 --trace 0
#
# Every build artifact, cache and span file stays under .bench_build in the
# checkout. The build needs the repository's own packages, so outside a full
# checkout it fails and the script exits non-zero without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
