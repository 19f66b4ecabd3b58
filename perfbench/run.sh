#!/usr/bin/env bash
# Builds the benchmark and strudel-serve from the checkout's sources, then
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload batch-mixed --seed 1 --seconds 18 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build), including the Go build cache.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root" >&2
  exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
  /*) ;;
  *) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config" "$build/cache"
export GOCACHE="$build/go-build" GOPATH="$build/go" GOMODCACHE="$build/go/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
go build -o "$build/strudel-serve" ./cmd/strudel-serve >&2
exec "$build/perfbench" --serve-bin "$build/strudel-serve" --work "$build/work" "$@"
