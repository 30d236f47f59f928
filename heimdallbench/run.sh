#!/usr/bin/env bash
# Builds heimdallbench from the checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash heimdallbench/run.sh --workload diagnose --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root: the Go build cache, the binary
# and the traced run's span files.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
(
	cd "$root/heimdallbench"
	env GOTOOLCHAIN=local GOENV=off GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" \
		HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		go build -o "$out/heimdallbench" .
)
exec "$out/heimdallbench" "$@"
