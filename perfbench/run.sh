#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload kv-mixed --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The build, the Go build cache and the
# traced run's span files all stay under $CARGO_TARGET_DIR (default
# .bench_build) in the current directory.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"

# A private cache and config keep the toolchain from writing outside the
# checkout; nothing is downloaded.
GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= \
	go -C perfbench build -o "$out/perfbench" .

exec "$out/perfbench" --trace-dir "$out/spans" "$@"
