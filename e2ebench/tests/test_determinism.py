#!/usr/bin/env python3
"""Determinism self-test for e2ebench.

Two short traced runs with one seed must give identical counts: UNKNOWN
verdicts per polarity, candidates, rewrite queries and prunes, and cache
misses (per request for decide_*, per program for serve_burst, which runs
with one client here so that cache state does not depend on timing).
The replayed verdicts must match CheckContainment's on every request.
The test also reports tracing overhead: for decide_*, traced replays of
the first requests against the same replays without spans; for
serve_burst, the traced run's mean call time against the untraced run's
on the same requests.

Usage: python3 e2ebench/tests/test_determinism.py [--seed N]
Exit status 0 when every count repeats, 1 otherwise.
"""

import argparse
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("e2ebench_run", HERE.parent / "run.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)

CASES = [
    ("decide_ucq", ["--requests", "48"],
     ["unknown_contained", "unknown_not_contained", "candidates",
      "rewrite_queries", "rewrite_prunes", "cache_misses"]),
    ("decide_guarded", ["--requests", "24"],
     ["unknown_contained", "unknown_not_contained", "candidates",
      "rewrite_queries", "rewrite_prunes", "cache_misses"]),
    ("serve_burst", ["--requests", "64", "--clients", "1"],
     ["unknown", "contain_requests", "cache_misses_per_program"]),
]


def drive(workload, seed, trace, extra):
    command = [str(bench.BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", "120", "--trace", str(trace)] + extra
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=bench.RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: binary exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    bench.build()
    ok = True
    for workload, extra, keys in CASES:
        first = drive(workload, args.seed, 1, extra)
        second = drive(workload, args.seed, 1, extra)
        plain = drive(workload, args.seed, 0, extra)
        for run in (first, second, plain):
            if not run["correct"]:
                print(f"FAIL {workload}: an answer check failed")
                ok = False
        if first["detail"].get("replay_mismatches", 0) != 0:
            print(f"FAIL {workload}: replayed verdicts differ from "
                  "CheckContainment's")
            ok = False
        for key in keys:
            a, b = first["detail"][key], second["detail"][key]
            status = "ok  " if a == b else "FAIL"
            ok = ok and a == b
            print(f"{status} {workload:15s} {key:24s} {a} / {b}")
        if "tracing_overhead" in first["detail"]:
            # decide_*: the binary replays the same requests without spans.
            overhead = first["detail"]["tracing_overhead"]
            print(f"     {workload:15s} tracing overhead: traced replay vs "
                  f"the same replay untraced {100 * overhead:+.1f}%")
        else:
            untraced_ms = (1e3 * plain["detail"]["timed_s"] /
                           max(plain["detail"]["requests"], 1))
            traced_ms = first["metrics"]["trace.request_ms"]["value"]
            print(f"     {workload:15s} tracing overhead: traced request "
                  f"{traced_ms:.3f} ms vs untraced {untraced_ms:.3f} ms "
                  f"({100 * (traced_ms / untraced_ms - 1):+.1f}%)")
    print("determinism self-test", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
