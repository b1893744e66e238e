"""One measurement in a fresh interpreter; prints one JSON object as its last line.

    python3 perfbench/child.py pass  <workload> <seed>
    python3 perfbench/child.py trace <workload> <seed> <span-file>
    python3 perfbench/child.py micro

run.py starts one of these per pass, so every pass begins with cold caches
and its own ``ru_maxrss``.
"""

import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import rrseries  # noqa: E402

if not os.path.abspath(rrseries.__file__).startswith(SRC + os.sep):
    sys.exit(f"rrseries imported from {rrseries.__file__}, not from {SRC}")

from rrseries import _backend  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

MICRO_ORDERS = (500, 2000)
MICRO_REPEAT = 3


def tail_percentile(count):
    """Highest whole percentile, at most 99, with at least ten samples beyond it
    (the median when there are too few samples for any)."""
    return min(99, 100 * (count - 10) // count) if count > 10 else 50


def summarize(result):
    """Reduce a pass result to what run.py aggregates: latency percentiles
    instead of every latency, and the first few failures."""
    ops = result.pop("ops_ms", None)
    if ops:
        pct = tail_percentile(len(ops))
        result.update(op_p50_ms=statistics.median(ops),
                      op_tail_ms=statistics.quantiles(ops, n=100)[pct - 1],
                      op_tail_pct=pct, op_count=len(ops))
    failures = result.pop("failures")
    result["failures"] = [f"{key}: {why}" for key, why in list(failures.items())[:5]]
    return result


def run_pass(workload, seed):
    return summarize(workloads.RUNNERS[workload](seed))


def run_trace(workload, seed, span_file):
    tracer = tracing.Tracer()
    tracer.install({"session.request": [(workloads, "serve")]})
    result = summarize(workloads.RUNNERS[workload](seed, after_pass=tracer.uninstall))
    metrics, facts = tracer.layer_metrics()
    tracer.write(span_file)
    result.update(layers=metrics, spans=len(tracer.spans), **facts)
    if workload == "session":
        result["properties"] = workloads.session_properties(workloads.session_requests(seed))
    return result


def partition_style_coeffs(order):
    """Coefficients of 1/(q;q)_inf: the big-integer growth the catalog's series have."""
    dp = [1] + [0] * (order - 1)
    for part in range(1, order):
        for total in range(part, order):
            dp[total] += dp[total - part]
    return dp


def run_micro():
    """Median time of each kernel on partition-style inputs, as in
    benchmarks/bench_kernels.py."""
    metrics = {}
    for order in MICRO_ORDERS:
        a = partition_style_coeffs(order)
        b = [(-1) ** n * c for n, c in enumerate(a)]
        unit = [1] + b[1:]

        def poch_product():
            c = [1] + [0] * (order - 1)
            for e in range(1, order):
                _backend.binomial_update(c, e, -1, order)

        cases = {
            "mul_trunc": lambda: _backend.mul_trunc(a, b, order),
            "invert_trunc": lambda: _backend.invert_trunc(unit, order),
            "binomial_update": poch_product,
        }
        for kernel, fn in cases.items():
            times = []
            for _ in range(MICRO_REPEAT):
                start = time.perf_counter_ns()
                fn()
                times.append((time.perf_counter_ns() - start) / 1e6)
            metrics[f"micro.{kernel}.n{order}_ms"] = (statistics.median(times), "ms")
    return {"layers": metrics}


def main(argv):
    mode = argv[0]
    if mode == "pass":
        result = run_pass(argv[1], int(argv[2]))
    elif mode == "trace":
        result = run_trace(argv[1], int(argv[2]), argv[3])
    elif mode == "micro":
        result = run_micro()
    else:
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
