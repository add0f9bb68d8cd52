#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload hier1k-hnspf --seed 7 --seconds 30 --trace 0
#
# The build runs with its home, Go path, build cache and configuration
# under perfbench/.build, so the benchmark reads and writes nothing outside
# the checkout but the Go toolchain itself.
set -euo pipefail
dir="$(cd "$(dirname "$0")" && pwd)"
b="$dir/.build"
mkdir -p "$b/home"
HOME="$b/home" XDG_CONFIG_HOME="$b/home/.config" \
  GOPATH="$b/gopath" GOCACHE="$b/gocache" GOMODCACHE="$b/gopath/pkg/mod" \
  GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off \
  go build -C "$dir" -o "$b/perfbench" .
exec "$b/perfbench" "$@"
