#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it with
# the given arguments, from the root of the checkout:
#
#   bash bench/run.sh --workload svc-mixed --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --workload all --repeat 5 --out runs.jsonl
#
# The Go build cache, the binary, and everything a run leaves behind
# (sockets, state directories, traces) live under .bench_build/, so the
# benchmark writes nothing outside the checkout. Outside a full
# checkout the build fails and the script exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
(cd bench && go build -o "$out/peachybench" .)
exec "$out/peachybench" "$@"
