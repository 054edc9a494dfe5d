#!/usr/bin/env bash
# Builds placebench from the sources of the checkout it is run from, then runs
# it with the given arguments. Run it from the repository root:
#
#	bash placebench/run.sh --workload flow-me --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/ in
# the current directory. Without the repository's own sources next to this
# directory the build fails and the script exits non-zero before printing a
# result.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$out/placebench" .)
exec "$out/placebench" "$@"
