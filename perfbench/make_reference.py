"""Regenerate the correctness references in perfbench/reference/.

    python3 perfbench/make_reference.py [suite|deep|session ...]

The references are the outputs of the program at the commit that defined
the benchmark.  Regenerate them only when a change is meant to alter
results, and say so in that change.
"""

import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from rrseries import catalog, cli, dsl  # noqa: E402

import workloads as w  # noqa: E402


def write(name, data):
    os.makedirs(w.REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(w.REFERENCE_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def suite_reference():
    out = io.StringIO()
    if cli.main(list(w.SUITE_ARGV), out=out) != 0:
        sys.exit("paper-suite failed; no reference written")
    items = [{"name": r["name"], "status": r["status"],
              "certified_order": r["certified_order"]} for r in json.loads(out.getvalue())]
    return {"argv": w.SUITE_ARGV, "items": items}


def deep_reference():
    return {"order": w.DEEP_ORDER, "sha256": {
        tag: w.digest(list(catalog.named_series(tag, w.DEEP_ORDER).coeffs), 64)
        for tag in w.DEEP_TAGS}}


def session_reference():
    hot, tail = w.expression_pools()
    series = {}
    for expr in hot + tail:
        node = dsl.parse(expr)
        series[expr] = {str(order): w.digest(list(dsl.evaluate(node, order).coeffs))
                        for order in w.SESSION_ORDERS}
    requests = w.session_requests(w.DEFAULT_SEED)
    results = [w.serve(request) for request in requests]
    for request, result in zip(requests, results):
        coeffs = dsl.evaluate(dsl.parse(request[1]), request[2]).coeffs
        if result != w.oracle(request, coeffs):
            sys.exit(f"program and oracle disagree on {request}; no reference written")
    return {"default_seed": w.DEFAULT_SEED, "default_digest": w.digest(results),
            "series": series}


MAKERS = {"suite": suite_reference, "deep": deep_reference, "session": session_reference}

if __name__ == "__main__":
    for workload in sys.argv[1:] or MAKERS:
        write(f"{workload}.json", MAKERS[workload]())
