#!/usr/bin/env sh
# Run bench binaries with --benchmark_format=json and write the results to
# BENCH_<name>.json in the repo root (bench_chase -> BENCH_chase.json), for
# before/after comparisons across commits. Each file's "context" records
# the commit (suffixed -dirty when tracked files differ from it), the
# machine's CPU count and the build type, so numbers from different
# machines or builds are never compared by accident.
#
# The name omqc_load runs the server load driver instead:
# `omqc_load --inprocess --requests=120 --concurrency=4 --seed=1` writes
# BENCH_server.json (cold/warm p50/p99/mean, EXPERIMENTS.md "SRV") with
# the same three context fields; extra benchmark args do not apply.
#
# Usage: scripts/bench_json.sh [bench_name...] [-- extra benchmark args...]
#   scripts/bench_json.sh                 # every bench_* binary + omqc_load
#   scripts/bench_json.sh bench_chase     # just one
#   scripts/bench_json.sh omqc_load       # just BENCH_server.json
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
  if [ -x "$BUILD_DIR/examples/omqc_load" ]; then
    benches="$benches omqc_load"
  fi
fi

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain --untracked-files=no 2>/dev/null)" ]; then
  commit="$commit-dirty"
fi
build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
    "$BUILD_DIR/CMakeCache.txt" 2>/dev/null)"
context="commit=$commit,nproc=$(nproc),build_type=${build_type:-unknown}"

for bench in $benches; do
  if [ "$bench" = omqc_load ]; then
    bin="$BUILD_DIR/examples/omqc_load"
    if [ ! -x "$bin" ]; then
      echo "error: $bin not found (build the project first)" >&2
      exit 1
    fi
    out="BENCH_server.json"
    echo "== omqc_load -> $out"
    "$bin" --inprocess --requests=120 --concurrency=4 --seed=1 \
        --json="$out" >/dev/null
    # omqc_load records the build type it was compiled with; add the rest.
    python3 - "$out" "$commit" "$(nproc)" <<'EOF'
import json
import sys

path, commit, nproc = sys.argv[1:]
with open(path, encoding="utf-8") as f:
    doc = json.load(f)
doc["context"].update(commit=commit, nproc=nproc)
with open(path, "w", encoding="utf-8") as f:
    f.write(json.dumps(doc, separators=(",", ":")) + "\n")
EOF
    continue
  fi
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
