#!/usr/bin/env sh
# Run bench binaries with --benchmark_format=json and write the results to
# BENCH_<name>.json in the repo root (bench_chase -> BENCH_chase.json), for
# before/after comparisons across commits. Each file's "context" records
# the commit (suffixed -dirty when tracked files differ from it), the
# machine's CPU count and the build type, so numbers from different
# machines or builds are never compared by accident.
#
# Usage: scripts/bench_json.sh [bench_name...] [-- extra benchmark args...]
#   scripts/bench_json.sh                 # every bench_* binary in the build
#   scripts/bench_json.sh bench_chase     # just one
#   scripts/bench_json.sh bench_chase -- --benchmark_filter=Strategy
# Env: BUILD_DIR (default: build) — must already be configured and built.
set -eu
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found (build the project first)" >&2
  exit 1
fi

benches=""
extra_args=""
collecting_extra=0
for arg in "$@"; do
  if [ "$collecting_extra" -eq 1 ]; then
    extra_args="$extra_args $arg"
  elif [ "$arg" = "--" ]; then
    collecting_extra=1
  else
    benches="$benches $arg"
  fi
done

if [ -z "$benches" ]; then
  for bin in "$BUILD_DIR"/bench/bench_*; do
    [ -x "$bin" ] || continue
    benches="$benches $(basename "$bin")"
  done
fi

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
  commit="$commit-dirty"
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
    "$BUILD_DIR/CMakeCache.txt" 2>/dev/null)"
context="commit=$commit,nproc=$(nproc),build_type=${build_type:-unknown}"

for bench in $benches; do
  bin="$BUILD_DIR/bench/$bench"
  if [ ! -x "$bin" ]; then
    echo "error: $bin is not an executable bench binary" >&2
    exit 1
  fi
  out="BENCH_${bench#bench_}.json"
  echo "== $bench -> $out"
  # shellcheck disable=SC2086  # extra_args is intentionally word-split
  "$bin" --benchmark_format=json --benchmark_out_format=json \
      --benchmark_out="$out" --benchmark_context="$context" \
      $extra_args >/dev/null
done
