"""Span tracing of rrseries' public functions, from outside the program.

``Tracer.install`` replaces each traced function at the name its caller
looks up (``_backend.mul_trunc``, ``catalog.pochhammer_inf``,
``Series.__mul__``, ...) with a wrapper that records a span: name, parent
span, root span, start and end in ns, and a few computed counts.  All
spans of one request (or one top-level call) share its root span's id.
Spans stay in memory until ``write`` dumps them as JSON lines.  A
layer's self time is its span's duration minus its child spans.
"""

import functools
import json
import time

from rrseries import _backend, catalog, cli, dsl, partitions, qfunctions, report, verify
from rrseries.series import Series

# span name -> the (namespace, attribute) pairs its callers look it up by
TRACED = {
    "kernels.mul_trunc": [(_backend, "mul_trunc")],
    "kernels.invert_trunc": [(_backend, "invert_trunc")],
    "kernels.binomial_update": [(_backend, "binomial_update")],
    "series.mul": [(Series, "__mul__")],
    "series.invert": [(Series, "invert")],
    "series.pow": [(Series, "__pow__")],
    "qfunctions.pochhammer_inf": [(qfunctions, "pochhammer_inf"), (catalog, "pochhammer_inf")],
    "qfunctions.euler_f": [(qfunctions, "euler_f"), (catalog, "euler_f")],
    "qfunctions.theta_general": [(qfunctions, "theta_general")],
    "catalog.named_series": [(catalog, "named_series")],
    "catalog.linking_relations": [(catalog, "linking_relations")],
    "catalog.f_mrs": [(catalog, "f_mrs")],
    "dsl.parse": [(dsl, "parse")],
    "dsl.evaluate": [(dsl, "evaluate")],
    "dsl.load_manifest": [(dsl, "load_manifest")],
    "verify.verify_identity": [(verify, "verify_identity")],
    "verify.scan": [(verify, "scan")],
    "verify.period_check": [(verify, "period_check")],
    "partitions.counts": [(partitions, "counts")],
    "partitions.check_alpha_beta": [(partitions, "check_alpha_beta")],
    "cli.main": [(cli, "main")],
    "report.reports_to_json": [(report, "reports_to_json"), (cli, "reports_to_json")],
}

KERNELS = ("kernels.mul_trunc", "kernels.invert_trunc", "kernels.binomial_update")

# layers whose per-layer metrics are self time only
SELF_ONLY = ("partitions.counts", "partitions.check_alpha_beta", "cli.main",
             "report.reports_to_json")

N_BUCKETS = ((64, "lt64"), (256, "lt256"), (1024, "lt1024"), (4096, "lt4096"),
             (None, "ge4096"))


def _kernel_n(name, args):
    if name == "kernels.mul_trunc":
        return args[2]
    if name == "kernels.invert_trunc":
        return args[1]
    return args[3]


def _max_bits(coeffs):
    return max(max(coeffs), -min(coeffs)).bit_length() if coeffs else 0


def _mul_counts(args):
    """Computed, not counted: products a schoolbook Cauchy loop would form
    for these operand lengths (zero coefficients included), and the widest
    operand coefficient."""
    a, b, n = args
    products = sum(min(len(b), n - i) for i in range(min(len(a), n)))
    return {"coeff_products": products, "max_bits": max(_max_bits(a), _max_bits(b))}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, root, start_ns, end_ns, extra]
        self.stack = []
        self._saved = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        kernel = name in KERNELS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = None
            if kernel:
                extra = {"n": _kernel_n(name, args)}
                if name == "kernels.mul_trunc":
                    extra.update(_mul_counts(args))
            elif name == "verify.verify_identity":
                extra = {"record": args[0].name}
            index = len(spans)
            span = [name, stack[-1] if stack else -1, stack[0] if stack else index, 0, 0, extra]
            stack.append(index)
            spans.append(span)
            span[3] = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                stack.pop()

        return traced

    def install(self, extra=None):
        """Wrap every TRACED site, plus ``extra`` sites of the same form."""
        for name, sites in {**TRACED, **(extra or {})}.items():
            wrapper = None
            for owner, attr in sites:
                original = owner.__dict__[attr]
                wrapper = wrapper or self.wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_metrics(self):
        """Per-layer metrics: calls and self time per span name, plus kernel counts."""
        child_ns = [0] * len(self.spans)
        for name, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = {name: 0 for name in TRACED}
        self_ns = {name: 0 for name in TRACED}
        hist = {(kernel, label): 0 for kernel in KERNELS for _, label in N_BUCKETS}
        mul = {"coeff_products": 0, "max_n": 0, "max_bits": 0}
        slowest = (0, None)
        for index, (name, _, _, start, end, extra) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[index]
            if name in KERNELS:
                n = extra["n"]
                label = next(label for limit, label in N_BUCKETS if limit is None or n < limit)
                hist[(name, label)] += 1
            if name == "kernels.mul_trunc":
                mul["coeff_products"] += extra["coeff_products"]
                mul["max_n"] = max(mul["max_n"], extra["n"])
                mul["max_bits"] = max(mul["max_bits"], extra["max_bits"])
            elif name == "verify.verify_identity" and end - start > slowest[0]:
                slowest = (end - start, extra["record"])
        metrics = {}
        for name in TRACED:
            if name not in SELF_ONLY:
                metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        for key, value in mul.items():
            unit = {"coeff_products": "count", "max_n": "coeffs", "max_bits": "bits"}[key]
            metrics[f"kernels.mul_trunc.{key}"] = (value, unit)
        for (kernel, label), count in hist.items():
            metrics[f"{kernel}.n_{label}"] = (count, "count")
        metrics["verify.verify_identity.max_s"] = (slowest[0] / 1e9, "s")
        kernel_s = sum(self_ns[name] for name in KERNELS) / 1e9
        return metrics, {"slowest_record": slowest[1], "kernel_self_s": kernel_s}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, parent, root, start, end, extra) in enumerate(self.spans):
                record = {"id": index, "name": name, "parent": parent, "root": root,
                          "start_ns": start, "end_ns": end}
                if extra:
                    record.update(extra)
                fh.write(json.dumps(record, separators=(",", ":")) + "\n")
