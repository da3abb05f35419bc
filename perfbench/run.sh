#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload ipsec-mtu --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files, Go
# telemetry) stays under .bench_build/ in the checkout ($CARGO_TARGET_DIR
# when set). The build fails, and so does this script, when the checkout
# does not hold the program's sources next to perfbench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

(
	cd perfbench
	env GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
		XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
