#!/usr/bin/env bash
# Builds the benchmark and runs it from the current directory, which must be
# the root of a checkout. Everything the Go toolchain writes (build cache,
# binary) stays under bench/.cache, inside the checkout.
set -euo pipefail
dir=$(cd "$(dirname "$0")" && pwd)
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
export GOCACHE="$dir/.cache/go-build" GOPATH="$dir/.cache/gopath" XDG_CONFIG_HOME="$dir/.cache/config"
go -C "$dir" build -o "$dir/.cache/bench" .
exec "$dir/.cache/bench" "$@"
