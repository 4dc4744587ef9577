#!/usr/bin/env python3
"""Check benchmark results against the checked-in ns/op guardrails.

Usage: scripts/check_bench_guardrail.py <bench_name> <results.json>

<results.json> is google-benchmark --benchmark_format=json output for the
bench binary <bench_name> (e.g. bench_logic). Every guardrail registered
for that binary in bench/guardrails.json must be present in the results
and must not exceed baseline_ns * slack. Exit status 1 on any violation
or missing benchmark, so CI fails loudly.

Aggregate-aware: if the results contain repetition aggregates, the
median is used (less noise-prone than the mean on shared runners);
otherwise the single run's real_time.
"""

import json
import sys
from pathlib import Path


def ns(value: float, unit: str) -> float:
    return value * {"ns": 1, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench_name, results_path = sys.argv[1], sys.argv[2]
    repo = Path(__file__).resolve().parent.parent
    config = json.loads((repo / "bench" / "guardrails.json").read_text())
    guardrails = [g for g in config["guardrails"] if g["bench"] == bench_name]
    if not guardrails:
        print(f"no guardrails registered for {bench_name}; nothing to check")
        return 0

    results = json.loads(Path(results_path).read_text())
    # name -> real_time ns; prefer the median aggregate when present.
    times: dict[str, float] = {}
    medians: dict[str, float] = {}
    for b in results.get("benchmarks", []):
        if "real_time" not in b:
            continue  # BigO/RMS complexity aggregates carry no time
        t = ns(b["real_time"], b["time_unit"])
        if b.get("aggregate_name") == "median":
            medians[b["run_name"]] = t
        elif b.get("run_type", "iteration") == "iteration":
            times.setdefault(b["name"], t)
    times.update(medians)

    failed = False
    for g in guardrails:
        name, baseline, slack = g["name"], g["baseline_ns"], g["slack"]
        ceiling = baseline * slack
        measured = times.get(name)
        if measured is None:
            print(f"FAIL {name}: not found in {results_path} "
                  f"(was the filter too narrow or the bench renamed?)")
            failed = True
            continue
        verdict = "FAIL" if measured > ceiling else "ok"
        print(f"{verdict:4} {name}: {measured:.0f} ns "
              f"(ceiling {ceiling:.0f} = {baseline} x {slack})")
        if measured > ceiling:
            print(f"     {g['reason']}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
