#!/usr/bin/env bash
# Builds the benchmark and the oaserver binary from this checkout, then
# runs one workload:
#
#   bash perfbench/run.sh --workload sets_read --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything the build writes (the
# two binaries, the Go build cache, Go's config and telemetry files) goes
# under .bench_build/, so the run reads and writes only inside the
# checkout. Compilation happens here, before the benchmark starts its
# clock, so no reported set-up time includes it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOFLAGS=-mod=mod
export CGO_ENABLED=0

# Telemetry off: with it on, each go command can fork a detached child to
# process its counters, and that child outlives the build.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

# The oaserver binary the server workloads spawn is the program as
# shipped: built from this tree with its default settings.
go build -o "$out/oaserver" ./cmd/oaserver
(cd perfbench && go build -o "$out/perfbench" .)

# A checkout that is not its own git repository reports no SHA; the
# benchmark then identifies the tree by a hash of its sources.
sha=none
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	sha=$(git -C "$root" rev-parse HEAD)
fi
exec "$out/perfbench" -server "$out/oaserver" -root "$root" -git-sha "$sha" "$@"
