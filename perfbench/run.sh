#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload wire-small --seed 1 --seconds 20 --trace 0
# Every build and cache artefact stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod and perfbench/)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local CGO_ENABLED=0 GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/iqperf" .) >&2
# With two or more CPUs the generator runs on CPU 0 and the sink it starts
# on CPU 1, so the two processes do not trade places on one core.
if command -v taskset >/dev/null 2>&1 && [[ $(getconf _NPROCESSORS_ONLN) -ge 2 ]]; then
	exec taskset -c 0 "$out/iqperf" --out "$out" "$@"
fi
exec "$out/iqperf" --out "$out" "$@"
