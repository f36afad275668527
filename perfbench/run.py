#!/usr/bin/env python3
"""End-to-end benchmark of the RTDS library.

Builds perfbench/ (which compiles the library from src/) into the build
directory, runs one workload and prints rtds_perfbench's JSON result as the
last line of stdout:

    python3 perfbench/run.py --workload scale_1024 --seed 42 --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
At each seed recorded in perfbench/digests.json the run's RunMetrics digest
must equal the recorded one, or every job counts as failed.

Steadiness mode runs a workload K times at one seed and prints, per
end-to-end metric, the median, the quartiles, the interquartile spread and
the (max-min) spread, each as a share of the median. It exits non-zero
when either spread exceeds the metric's bound in BENCHMARK.json, or when a
metric that is a function of the seed alone differs between the runs:

    python3 perfbench/run.py --steady 10 --workload all

With --vary-seed the K runs use seeds seed..seed+K-1 instead, the way the
spreads across seeds are checked; the deterministic metrics then vary with
the input and are held to their bounds like the rest.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    out = build_dir()
    steps = []
    # A configure that failed leaves a cache but no Makefile.
    if not (out / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S, check=False)
        if res.returncode != 0:
            raise RuntimeError("build failed: " + " ".join(cmd))
    binary = out / "rtds_perfbench"
    if not binary.exists():
        raise RuntimeError("build produced no rtds_perfbench")
    return binary


def load_json(name):
    path = (ROOT / name) if name == "BENCHMARK.json" else (HERE / name)
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def validate(result, spec, trace):
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        raise ValueError("result keys %s" % sorted(result))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(result["metrics"]) != sorted(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        raise ValueError("metrics mismatch: missing %s extra %s"
                         % (sorted(missing), sorted(extra)))
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")


def run_once(binary, workload, seed, seconds, trace, spec):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    expected = load_json("digests.json").get(workload, {}).get(str(seed))
    if expected:
        cmd += ["--expect-digest", expected]
    if trace:
        spans = build_dir().parent / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / ("%s-seed%d.jsonl" % (workload, seed)))]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                         timeout=RUN_TIMEOUT_S, check=False, text=True)
    if res.returncode != 0:
        raise RuntimeError("%s exited with %d" % (workload, res.returncode))
    lines = [l for l in res.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("%s printed no result" % workload)
    result = json.loads(lines[-1])
    validate(result, spec, trace)
    return lines[-1], result


# Functions of the seed alone: runs at one seed must read exactly the same.
DETERMINISTIC = ("delivered_ratio", "msgs_per_job")


def spread_row(name, vals, bound, same_seed):
    """Prints one metric's row; returns False when it breaks its bound."""
    q1, med, q3 = statistics.quantiles(vals, n=4)
    iqr = (q3 - q1) / med if med else float("inf")
    rng = (max(vals) - min(vals)) / med if med else float("inf")
    flags = []
    if iqr > bound:
        flags.append("IQR EXCEEDS BOUND")
    if rng > bound:
        flags.append("RANGE EXCEEDS BOUND")
    if same_seed and name in DETERMINISTIC and len(set(vals)) > 1:
        flags.append("NOT REPEATABLE")
    print("  %-16s %14.6g %14.6g %14.6g %8.4f %8.4f %6.3f  %s" % (
        name, med, q1, q3, iqr, rng, bound, " ".join(flags)))
    return not flags


def steady(binary, workloads, seed, seconds, runs, vary_seed, spec):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        seeds = [seed + k if vary_seed else seed for k in range(runs)]
        values = {name: [] for name in bounds}
        for s in seeds:
            _, result = run_once(binary, workload, s, seconds, 0, spec)
            if not result["correct"] or result["failed"]:
                log("%s seed %d: incorrect result" % (workload, s))
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("%s: %d runs, seeds %s" % (
            workload, runs, "%d..%d" % (seeds[0], seeds[-1]) if vary_seed
            else "all %d" % seed))
        print("  %-16s %14s %14s %14s %8s %8s %6s" % (
            "metric", "median", "q1", "q3", "iqr/med", "rng/med", "bound"))
        for name, vals in values.items():
            ok = spread_row(name, vals, bounds[name], not vary_seed) and ok
        sys.stdout.flush()
    return 0 if ok else 1


def main():
    spec = load_json("BENCHMARK.json")
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="one of %s (or 'all' with --steady)" % names)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K",
                    help="run K times and check the spreads")
    ap.add_argument("--vary-seed", action="store_true",
                    help="with --steady: one seed per run, seed..seed+K-1")
    args = ap.parse_args()

    workloads = names if args.workload == "all" else [args.workload]
    for w in workloads:
        if w not in names:
            ap.error("unknown workload %r" % w)
    if args.steady == 0 and len(workloads) != 1:
        ap.error("--workload all needs --steady")

    started = time.time()
    try:
        binary = build()
        log("build ready in %.1f s" % (time.time() - started))
        if args.steady:
            return steady(binary, workloads, args.seed, args.seconds,
                          args.steady, args.vary_seed, spec)
        line, _ = run_once(binary, workloads[0], args.seed, args.seconds,
                           args.trace, spec)
    except (RuntimeError, ValueError, OSError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
