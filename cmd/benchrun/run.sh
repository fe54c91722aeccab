#!/usr/bin/env bash
# Builds atlasd and benchrun from this checkout's sources and runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash cmd/benchrun/run.sh -seed 77
#   bash cmd/benchrun/run.sh --workload ingest --seed 3 --seconds 8 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, the binaries, and the per-run work
# directories (datasets, WALs). Build output goes to stderr so that the
# last line of stdout stays the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/atlasd" || ! -f "$root/cmd/benchrun/go.mod" ]]; then
	echo "benchrun: run from the repository root (need go.mod, cmd/atlasd and cmd/benchrun)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go build -o "$out/bin/atlasd" ./cmd/atlasd >&2
(cd "$root/cmd/benchrun" && go build -o "$out/bin/benchrun" .) >&2

exec "$out/bin/benchrun" -root "$root" -atlasd "$out/bin/atlasd" "$@"
