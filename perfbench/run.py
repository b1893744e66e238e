#!/usr/bin/env python3
"""rrseries benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload suite|deep|session --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  Every
pass runs in a fresh interpreter (perfbench/child.py), one at a time, so a
pass starts with cold caches and reports its own peak RSS.

--trace 0  measures set-up time (median of SETUP_STARTS fresh starts), then
           repeats passes of the workload until S seconds are used (at least
           one pass) and reports the median of each end-to-end metric.
--trace 1  runs one untraced and one traced pass plus the kernel
           micro-timings, and reports the per-layer metrics; spans are
           written to perfbench/out/.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every correctness gate passed; it is 2 if the program's source is
not there.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")

WORKLOADS = ("suite", "deep", "session")
SETUP_STARTS = 21
DEADLINE_S = 170.0
# a fixed hash seed gives every pass the same dict and set layouts
CHILD_ENV = dict(os.environ, PYTHONHASHSEED="0")

# Set-up as a user pays it: a fresh interpreter imports rrseries and loads
# the bundled manifest.  Interpreter start-up itself is not counted.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rrseries
from rrseries import dsl, verify
dsl.load_manifest(verify.default_manifest_path())
print(time.perf_counter() - start)
"""


class ChildFailed(Exception):
    pass


def child(args, timeout):
    """Run one child interpreter and return the JSON object it printed last."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=CHILD_ENV,
                              capture_output=True, text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{args[:3]} did not finish in {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{args[:3]} exited {proc.returncode}: {proc.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


def measure_setup(deadline):
    times = [child(["-c", SETUP_CODE, SRC], deadline - time.monotonic())
             for _ in range(SETUP_STARTS)]
    return statistics.median(times)


def run_passes(workload, seed, seconds, deadline):
    """Fresh-interpreter passes until ``seconds`` are used; at least one."""
    passes = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        passes.append(child([CHILD, "pass", workload, str(seed)], deadline - t0))
        last = time.monotonic() - t0
        if time.monotonic() - start + last > seconds or time.monotonic() + last > deadline:
            return passes


def end_to_end(workload, seed, seconds, deadline):
    setup_s = measure_setup(deadline)
    passes = run_passes(workload, seed, seconds, deadline)

    def median(key):
        return statistics.median(p[key] for p in passes)

    if "op_p50_ms" in passes[0]:
        op_p50, op_tail = median("op_p50_ms"), median("op_tail_ms")
        op_note = (f"op_ms.p99 is the p{passes[0]['op_tail_pct']} of {passes[0]['op_count']}"
                   " requests per pass (highest percentile with ten samples beyond it);"
                   " both are medians over passes")
    else:
        walls_ms = [p["wall_s"] * 1000.0 for p in passes]
        op_p50, op_tail = statistics.median(walls_ms), max(walls_ms)
        op_note = (f"the request is the whole pass: op_ms.p50 is the median and op_ms.p99"
                   f" the slowest of {len(passes)} passes")
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (median("wall_s"), "s"),
        "certified_coeffs": (median("certified_coeffs"), "coeffs"),
        "coeffs_per_s": (statistics.median(p["certified_coeffs"] / p["wall_s"] for p in passes),
                         "coeffs/s"),
        "op_ms.p50": (op_p50, "ms"),
        "op_ms.p99": (op_tail, "ms"),
        "peak_rss_mb": (median("peak_rss_mb"), "MB"),
    }
    notes = [
        f"passes = {len(passes)} (fresh interpreter each), setup starts = {SETUP_STARTS}",
        "pass wall_s = " + " ".join(f"{p['wall_s']:.4f}" for p in passes),
        op_note,
    ]
    return metrics, passes, notes


def per_layer(workload, seed, deadline):
    os.makedirs(OUT, exist_ok=True)
    span_file = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    plain = child([CHILD, "pass", workload, str(seed)], deadline - time.monotonic())
    traced = child([CHILD, "trace", workload, str(seed), span_file], deadline - time.monotonic())
    micro = child([CHILD, "micro"], deadline - time.monotonic())
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    metrics.update((name, tuple(value)) for name, value in micro["layers"].items())
    metrics["trace.wall_s"] = (traced["wall_s"], "s")
    metrics["trace.overhead_s"] = (traced["wall_s"] - plain["wall_s"], "s")
    metrics["kernels.share_pct"] = (100.0 * traced["kernel_self_s"] / traced["wall_s"], "%")
    notes = [
        f"spans = {traced['spans']} written to {os.path.relpath(span_file, ROOT)}",
        f"untraced wall_s = {plain['wall_s']:.4f} s, traced wall_s = {traced['wall_s']:.4f} s",
        f"slowest verify_identity: {traced['slowest_record']}",
    ]
    for key, value in traced.get("properties", {}).items():
        notes.append(f"{key} = {value:.3f}")
    with open(os.path.join(OUT, f"layers-{workload}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "notes": notes}, fh, indent=1)
    return metrics, [plain, traced], notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "rrseries", "__init__.py")):
        print(f"error: no rrseries source under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            metrics, passes, notes = per_layer(args.workload, args.seed, deadline)
        else:
            metrics, passes, notes = end_to_end(args.workload, args.seed, args.seconds, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload = {args.workload}, seed = {args.seed}, trace = {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for p in passes:
        for failure in p["failures"]:
            print(f"FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
