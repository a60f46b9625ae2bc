#!/usr/bin/env bash
# Builds hgbench from the checkout it sits in and runs one workload:
#
#   bash hgbench/run.sh --workload vii-c --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, span and record files) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/go/cache" GOMODCACHE="$out/go/mod" GOPATH="$out/go/path"
export XDG_CONFIG_HOME="$out/go/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$here" && go build -o "$out/hgbench" .) >&2
exec "$out/hgbench" --out "$out" "$@"
