#!/usr/bin/env sh
# Differential soak smoke: a fixed-seed scenario corpus through every
# engine configuration (shared cache, cache off, governed with random
# budgets, live TCP server), five acceptance checks:
#
#   1. Clean corpus: no configuration ever disagrees with another or with
#      the construction polarity oracle.
#   2. Determinism: two identical invocations produce byte-identical
#      stdout (the wall-clock-dependent tallies go to stderr).
#   3. Persistent store: two runs over the same --persist-dir produce
#      byte-identical stdout (artifacts decoded from disk segments never
#      change a verdict) and the warm run actually serves from disk.
#   4. Planted bug: with --plant-flip the harness must catch the flipped
#      verdict on every scenario, minimize one to <= 10 tgds, and the
#      emitted repro must replay through `omqc_cli contain`.
#   5. Golden verdicts: `--seed=11 --count=30` over the local configs
#      (no server, no governor: nothing that reads a wall clock) prints
#      exactly tests/golden/soak_seed11_count30.txt. A change that is
#      meant to move a verdict updates that file in a visible diff.
#
# Repro files land in ./soak-artifacts for CI upload on failure.
#
# Usage: scripts/soak_smoke.sh
# Env: BUILD_DIR (default: build) — must already be configured and built.
#      COUNT (default: 200) — corpus size; the ASan job uses a smaller one.
set -eu
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
COUNT="${COUNT:-200}"
SEED=20240817
for bin in omqc_soak omqc_cli; do
  if [ ! -x "$BUILD_DIR/examples/$bin" ]; then
    echo "error: $BUILD_DIR/examples/$bin not found (build the project first)" >&2
    exit 1
  fi
done

artifacts="$(pwd)/soak-artifacts"
rm -rf "$artifacts"
mkdir -p "$artifacts"
workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT INT TERM

# 1 + 2. Clean corpus, twice: zero discrepancies and identical stdout.
echo "soak run 1/2 (seed=$SEED count=$COUNT)..."
"$BUILD_DIR/examples/omqc_soak" --seed="$SEED" --count="$COUNT" \
  --repro-dir="$artifacts" >"$workdir/run1.txt" 2>"$workdir/run1.err"
echo "soak run 2/2..."
"$BUILD_DIR/examples/omqc_soak" --seed="$SEED" --count="$COUNT" \
  --repro-dir="$artifacts" >"$workdir/run2.txt" 2>"$workdir/run2.err"
if ! diff -u "$workdir/run1.txt" "$workdir/run2.txt" >&2; then
  echo "error: soak stdout is not deterministic across identical runs" >&2
  cp "$workdir"/run1.txt "$workdir"/run2.txt "$artifacts"/
  exit 1
fi
echo "determinism: OK ($(wc -l <"$workdir/run1.txt") identical lines)"

# 3. Persistent-store differential: cold run seeds the store (and warm-
# reloads it every 25 scenarios), warm run replays the same corpus from
# disk. Stdout must not move by a byte, and the warm run's stderr tally
# must show artifacts actually served from segments. Local configs only —
# the persist config is in-process by construction.
persist_count=40
echo "persist soak run 1/2 (count=$persist_count)..."
"$BUILD_DIR/examples/omqc_soak" --seed="$SEED" --count="$persist_count" \
  --server=off --governed=off --persist-dir="$workdir/persist-store" \
  --repro-dir="$artifacts" >"$workdir/persist1.txt" 2>"$workdir/persist1.err"
echo "persist soak run 2/2 (same --persist-dir)..."
"$BUILD_DIR/examples/omqc_soak" --seed="$SEED" --count="$persist_count" \
  --server=off --governed=off --persist-dir="$workdir/persist-store" \
  --repro-dir="$artifacts" >"$workdir/persist2.txt" 2>"$workdir/persist2.err"
if ! diff -u "$workdir/persist1.txt" "$workdir/persist2.txt" >&2; then
  echo "error: warm-start soak stdout differs from cold-start" >&2
  cp "$workdir"/persist1.txt "$workdir"/persist2.txt "$artifacts"/
  exit 1
fi
hits="$(sed -n 's/^soak: persist hits=\([0-9][0-9]*\).*/\1/p' \
  "$workdir/persist2.err")"
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
  echo "error: warm soak run served nothing from disk (hits=${hits:-none})" >&2
  cat "$workdir/persist2.err" >&2
  exit 1
fi
echo "persist differential: byte-identical stdout, warm run hits=$hits"

# 4. Planted verdict flip: every scenario must flag, one repro must shrink
# to <= 10 tgds and replay through the CLI. Local configs only — the flip
# is in-process, and minimization probes would hammer the server for
# nothing.
echo "planted-flip run..."
set +e
"$BUILD_DIR/examples/omqc_soak" --seed="$SEED" --count=3 --server=off \
  --governed=off --plant-flip=cached --max-repros=1 \
  --repro-dir="$artifacts" >"$workdir/flip.txt" 2>&1
flip_status=$?
set -e
if [ "$flip_status" -ne 1 ]; then
  echo "error: planted flip should exit 1, got $flip_status" >&2
  cat "$workdir/flip.txt" >&2
  exit 1
fi
flagged="$(grep -c DISCREPANCY "$workdir/flip.txt")"
if [ "$flagged" -ne 3 ]; then
  echo "error: planted flip flagged $flagged of 3 scenarios" >&2
  cat "$workdir/flip.txt" >&2
  exit 1
fi
repro="$artifacts/soak_repro_0.dlgp"
if [ ! -s "$repro" ]; then
  echo "error: no minimized repro was written" >&2
  exit 1
fi
tgds="$(grep -c -- '->' "$repro" || true)"
if [ "$tgds" -gt 10 ]; then
  echo "error: minimized repro still has $tgds tgds (> 10)" >&2
  cat "$repro" >&2
  exit 1
fi
"$BUILD_DIR/examples/omqc_cli" contain "$repro" Q1 Q2 >"$workdir/replay.txt"
grep -q "Q1 ⊆ Q2:" "$workdir/replay.txt" || {
  echo "error: repro did not replay through omqc_cli contain" >&2
  cat "$workdir/replay.txt" >&2
  exit 1
}
echo "planted flip: caught on 3/3 scenarios, repro has $tgds tgds, replays OK"

# 5. Golden verdicts: stdout matches the recorded file byte for byte.
golden="tests/golden/soak_seed11_count30.txt"
echo "golden run (seed=11 count=30, local configs)..."
"$BUILD_DIR/examples/omqc_soak" --seed=11 --count=30 --server=off \
  --governed=off >"$workdir/golden.txt" 2>"$workdir/golden.err"
if ! diff -u "$golden" "$workdir/golden.txt" >&2; then
  echo "error: soak stdout differs from $golden" >&2
  cp "$workdir/golden.txt" "$artifacts"/
  exit 1
fi
echo "golden: OK ($(wc -l <"$golden") identical lines)"

# The planted-flip repros are expected artifacts of a healthy run; only a
# *clean-corpus* repro means a real discrepancy escaped.
rm -f "$artifacts"/soak_repro_*.dlgp
echo "soak smoke: OK"
