#!/usr/bin/env python3
"""End-to-end containment benchmark for omqc.

Builds the e2ebench binary from the checkout's sources (into
.bench_build/), runs one workload, checks its answers, and prints the
metrics. The last line of standard output is the result document:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage:
    python3 e2ebench/run.py --workload decide_ucq --seed 11 --seconds 20 --trace 0
    python3 e2ebench/run.py --all            # every workload, seed 11, a table

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a separate traced run (spans are written to
.bench_build/traces/). Every run also writes a record with its provenance
(commit, source digest, nproc, build type, compiler, SIMD, seed) to
.bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "e2ebench"
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the binary up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("e2ebench: no omqc sources (src/) in this checkout; cannot build")
        sys.exit(2)
    if not (BUILD / "CMakeCache.txt").is_file():
        BUILD.mkdir(parents=True, exist_ok=True)
        configure = subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            log("e2ebench: cmake configure failed")
            sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "e2ebench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr)
    if made.returncode != 0 or not BINARY.is_file():
        log("e2ebench: build failed")
        sys.exit(2)


def provenance():
    """What the binary's own provenance line cannot know."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count()}


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace, extra=()):
    """Runs the binary; returns (result document, provenance record)."""
    pins = load_json(HERE / "pins.json")
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--pin-seed", str(pins["default_seed"])]
    pin = pins["corpus_hash"].get(workload)
    if pin:
        command += ["--pin", pin]
    spans = None
    if trace:
        spans = ROOT / ".bench_build" / "traces" / f"{workload}-seed{seed}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.unlink(missing_ok=True)
        command += ["--spans", str(spans)]
    command += list(extra)
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: {workload} did not finish in {RUN_TIMEOUT_S} s")
        sys.exit(1)
    sys.stderr.write(done.stderr)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        log(f"e2ebench: binary exited with {done.returncode}")
        sys.exit(1)
    result = json.loads(lines[-1])
    record = provenance()
    for line in lines[:-1]:
        if line.startswith("provenance "):
            record.update(json.loads(line[len("provenance "):]))
        else:
            print(line)
    return result, record


def check_metric_set(result, trace):
    spec = load_json(ROOT / "BENCHMARK.json")
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log(f"e2ebench: binary did not report {missing}")
        sys.exit(1)
    return {n: result["metrics"][n] for n in names}


def write_record(workload, seed, trace, result, record):
    out = ROOT / ".bench_build" / "results"
    out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = dict(record, result=result)
    path = out / f"{workload}-seed{seed}-trace{trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def run_all(seconds):
    """One untraced run per workload at the default seed, as a table."""
    spec = load_json(ROOT / "BENCHMARK.json")
    seed = load_json(HERE / "pins.json")["default_seed"]
    rows = []
    for w in spec["workloads"]:
        result, record = run_once(w["name"], seed, seconds, 0)
        write_record(w["name"], seed, 0, result, record)
        rows.append((w["name"], result))
    print(f"\nseed {seed}, {seconds} s per workload")
    for name, result in rows:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        d = result["detail"]
        print(f"\n{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        print(f"  requests_per_s      {m['requests_per_s']:.4g} 1/s")
        print(f"  latency_p50_ms      {m['latency_p50_ms']:.4g} ms")
        print(f"  latency_tail_ms     {m['latency_tail_ms']:.4g} ms "
              f"(p{d['tail_percentile']:g}, {d['tail_beyond']} of "
              f"{d['latency_samples']} samples beyond)")
        print(f"  unknown_rate        {1 - m['definite_rate']:.4g}")
        print(f"  error_rate          {1 - m['ok_rate']:.4g}")
        print(f"  cpu_ms_per_request  {m['cpu_ms_per_request']:.4g} ms")
        print(f"  peak_rss_mb         {m['peak_rss_mb']:.4g} MB")
        print(f"  setup_s             {m['setup_s']:.4g} s")
    return all(r["correct"] for _, r in rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload untraced and print a table")
    args, extra = parser.parse_known_args()
    if not (ROOT / "BENCHMARK.json").is_file():
        log("e2ebench: BENCHMARK.json not found at the checkout root")
        sys.exit(2)
    seconds = args.seconds or load_json(ROOT / "BENCHMARK.json")["run_seconds"]
    build()
    if args.all:
        sys.exit(0 if run_all(seconds) else 1)
    if not args.workload:
        parser.error("--workload is required (or --all)")
    result, record = run_once(args.workload, args.seed, seconds, args.trace,
                              extra)
    write_record(args.workload, args.seed, args.trace, result, record)
    metrics = check_metric_set(result, args.trace)
    print("provenance " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": bool(result["correct"]),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
