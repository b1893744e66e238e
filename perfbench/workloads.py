"""The three benchmark workloads, their seeded inputs and their correctness gates.

Each ``run_<workload>(seed)`` performs one pass through the public rrseries
API in the calling interpreter, calls ``after_pass()`` (the tracer stops
there, so the checks are not traced), checks the outputs and returns a dict
with

    wall_s            wall time of the pass (benchmark clock)
    peak_rss_mb       ru_maxrss of the process at the end of the pass
    ops_ms            per-request latencies in ms (session only; on suite and
                      deep the request is the whole pass)
    certified_coeffs  sum of certified orders over all operations
    attempted/failed  operation counts; an operation fails if it raises, if
                      a non-report-only item fails, or if its result does not
                      match the correctness reference
    failures          failing operation -> reason

The caller (child.py) runs each pass in a fresh interpreter, because
``qfunctions._PENTAGONAL_CACHE`` has no public clear function and
``ru_maxrss`` only ever grows within a process.
"""

import hashlib
import io
import json
import os
import random
import re
import resource
import time
from collections import Counter

from rrseries import catalog, cli, dsl, verify
from rrseries.report import PASS, REPORT_ONLY_FAIL, REPORT_ONLY_PASS

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def digest(value, size=16):
    """Short sha256 of the canonical JSON form of ``value`` (ints stay exact)."""
    text = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:size]


def _now():
    return time.perf_counter_ns()


def _nothing():
    pass


def _peak_rss_mb():
    """``ru_maxrss`` of this process, read before the correctness checks run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# suite: what users run, in-process, cold caches

SUITE_ARGV = ["paper-suite", "-N", "300", "--scan-n", "1000", "--format", "json"]


def run_suite(seed, reference=None, after_pass=_nothing):
    """One ``rrseries paper-suite -N 300 --scan-n 1000`` in-process.

    The suite's inputs are fixed by the command line, so ``seed`` is unused.
    The whole pass is one request, so it reports no per-operation latencies.
    """
    del seed
    reference = reference if reference is not None else load_reference("suite")
    out = io.StringIO()
    start = _now()
    try:
        code = cli.main(list(SUITE_ARGV), out=out)
    except Exception as exc:  # the pass must report, not crash
        code = f"{type(exc).__name__}: {exc}"
    wall_s = (_now() - start) / 1e9
    peak_rss_mb = _peak_rss_mb()
    after_pass()
    items = json.loads(out.getvalue()) if code in (0, 1) else []
    failures = check_suite(items, reference)
    if code != 0:
        failures["cli.main"] = f"returned {code!r}"
    return {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "certified_coeffs": sum(item["certified_order"] for item in items),
        "attempted": len(reference["items"]),
        "failed": min(len(reference["items"]), len(failures)),
        "failures": failures,
    }


def check_suite(items, reference):
    """Failing item name -> reason.

    Names and statuses must equal the reference, report-only items included,
    so a conjecture scan that flips status is caught too.  Certified orders
    may only rise: a later engine that certifies more is still correct.
    """
    failures = {}
    got = {item["name"]: item for item in items}
    for name in got.keys() - {ref["name"] for ref in reference["items"]}:
        failures[name] = "not in the reference"
    for ref in reference["items"]:
        item = got.get(ref["name"])
        if item is None:
            failures[ref["name"]] = "missing"
        elif item["status"] != ref["status"]:
            failures[ref["name"]] = f"status {item['status']} != {ref['status']}"
        elif item["certified_order"] < ref["certified_order"]:
            failures[ref["name"]] = (
                f"certified order {item['certified_order']} < {ref['certified_order']}")
    return failures


# ---------------------------------------------------------------------------
# deep: push the checked range of the A/B/C/D/c/d families further

DEEP_ORDER = 3000
DEEP_TAGS = ("A", "B", "C", "D", "c", "d")

# The paper's proved sign patterns: (tag, residue mod 5, sign, exceptions).
SIGN_TABLE = (
    ("A", 1, "+", ()), ("A", 2, "+", ()), ("A", 3, "+", ()), ("A", 4, "-", ()),
    ("B", 1, "-", ()), ("B", 2, "+", ()), ("B", 3, "-", ()), ("B", 4, "+", ()),
    ("C", 0, "-", (0,)), ("C", 1, "-", ()), ("C", 2, "+", ()), ("C", 3, "-", ()),
    ("C", 4, "+", ()),
    ("D", 0, "-", (0,)), ("D", 2, "+", ()), ("D", 3, "+", ()), ("D", 4, "-", ()),
    ("c", 0, "+", ()), ("c", 1, "+", ()), ("c", 2, "-", (2,)), ("c", 3, "-", ()),
    ("c", 4, "-", (4, 9)),
    ("d", 0, "+", ()), ("d", 1, "-", ()), ("d", 2, "+", ()),
    ("d", 3, "-", (3, 8, 13, 23)), ("d", 4, "-", ()),
)

# The paper's proved congruence families: (tag, period, residues, modulus).
CONGRUENCE_TABLE = (
    ("A", 9, (4,), 3), ("B", 9, (2,), 3),
    ("A", 16, (13,), 4), ("B", 16, (11,), 4),
    ("A", 15, (4, 8, 13, 14), 15), ("B", 15, (2, 6, 11, 12), 15),
    ("C", 15, (3, 13), 30), ("D", 15, (7, 12), 30),
)


def deep_scan_specs(order=DEEP_ORDER):
    """The 27 sign scans and 16 congruence scans, all below ``order``."""
    specs = []
    for tag, residue, sign, exceptions in SIGN_TABLE:
        specs.append(verify.ScanSpec(
            name=f"{tag}(5n+{residue}) {sign}", target=tag, period=5,
            residue=residue, sign=sign, exceptions=exceptions, max_n=order,
        ))
    for tag, period, residues, modulus in CONGRUENCE_TABLE:
        for residue in residues:
            specs.append(verify.ScanSpec(
                name=f"{tag}({period}n+{residue}) = 0 (mod {modulus})", target=tag,
                period=period, residue=residue, divisor=modulus, max_n=order,
            ))
    return specs


def deep_plan(seed, order=DEEP_ORDER):
    """Build order is fixed (it decides which series are cache hits); the seed
    shuffles the scans, which all read cached series."""
    specs = deep_scan_specs(order)
    random.Random(seed).shuffle(specs)
    return specs


def run_deep(seed, reference=None, after_pass=_nothing, order=DEEP_ORDER):
    """Cold build of six families at ``order``, then 43 scans and 7 linking relations."""
    reference = reference if reference is not None else load_reference("deep")
    specs = deep_plan(seed, order)
    failures, built, scans = {}, {}, []

    def attempt(label, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            failures[label] = f"{type(exc).__name__}: {exc}"
            return None

    start = _now()
    for tag in DEEP_TAGS:
        built[tag] = attempt(f"build {tag}", catalog.named_series, tag, order)
    for spec in specs:
        scans.append(attempt(spec.name, verify.scan, spec))
    links = attempt("linking relations", catalog.linking_relations, order) or []
    wall_s = (_now() - start) / 1e9
    peak_rss_mb = _peak_rss_mb()
    after_pass()

    for tag, series in built.items():
        if series is not None and digest(list(series.coeffs), 64) != reference["sha256"][tag]:
            failures[f"build {tag}"] = f"sha256 of {tag} at order {order} differs"
    # a scan certifies every index below ``order``; a linking relation the
    # common length of two 5-dissections
    reports = [(r, order) for r in scans if r is not None] + [(r, order // 5) for r in links]
    for report, certified in reports:
        if report.status != PASS or report.certified_order != certified:
            failures[report.name] = (f"{report.status} to order {report.certified_order},"
                                     f" first violation {report.first_violation}")
    attempted = len(DEEP_TAGS) + len(specs) + len(catalog.LINKING_RELATIONS)
    return {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "certified_coeffs": sum(s.order for s in built.values() if s is not None)
        + sum(r.certified_order for r, _ in reports),
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# session: a long-lived process serving many small requests, one caller

SESSION_REQUESTS = 1500
SESSION_ORDERS = (30, 60, 100, 150, 200)
HOT_POOL_SIZE = 60
TAIL_POOL_SIZE = 440
HOT_SHARE = 0.7
POOL_SEED = 20250311  # the pools are part of the benchmark; the run seed only draws from them
DEFAULT_SEED = 1
RECHECK_SAMPLE = 40

# op kind -> share of requests
OP_MIX = (("expand", 0.40), ("mod", 0.25), ("scan", 0.20), ("period", 0.15))


def _atom(rng):
    kind = rng.choices(("f", "poch2", "poch1", "theta", "fun"), (3, 3, 2, 2, 4))[0]
    if kind == "f":
        return f"f{rng.randint(1, 10)}", False
    if kind in ("poch1", "poch2"):
        m = rng.randint(3, 12)
        a = rng.randint(1, m - 1)
        if kind == "poch1":
            return f"poch({a},{m})", False
        return f"poch({a},{m})*poch({m - a},{m})", True
    if kind == "theta":
        return (f"theta({rng.choice((1, -1))},{rng.randint(1, 4)},"
                f"{rng.choice((1, -1))},{rng.randint(1, 6)})"), False
    name = rng.choice(("phi", "psi", "chi", "G", "H", "R"))
    t = rng.choice((1, 1, 1, 2, 3, 5))
    arg = ("-q" if rng.random() < 0.3 else "q") + (f"^{t}" if t > 1 else "")
    return f"{name}({arg})", False


def _factor(rng, allow_power=True):
    text, compound = _atom(rng)
    if allow_power and rng.random() < 0.35:
        k = rng.choice((-3, -2, -1, 2, 3, 4, 5))
        return f"({text})^{k}" if compound else f"{text}^{k}"
    return text


def _product(rng, max_factors=4, allow_power=True):
    count = rng.randint(1, max_factors)
    text = _factor(rng, allow_power)
    for _ in range(count - 1):
        text += rng.choice(("*", "/")) + _factor(rng, allow_power)
    return text


def make_expression(rng):
    """One random expression: every factor has constant term 1, so every
    division and negative power is defined; sums and dissections appear only
    at the top level."""
    r = rng.random()
    if r < 0.2:
        sign = rng.choice(("+", "-"))
        coef = rng.randint(1, 5)
        e = rng.randint(1, 4)
        return f"{_product(rng, 3)} {sign} {coef}*q^{e}*{_product(rng, 2)}"
    if r < 0.3:
        t = rng.choice((2, 3))
        return f"dissect({_product(rng, 2, allow_power=False)},{t},{rng.randrange(t)})"
    return _product(rng)


def expression_pools():
    """(hot, tail) expression pools, fixed by POOL_SEED and free of duplicates."""
    rng = random.Random(POOL_SEED)
    seen, pool = set(), []
    while len(pool) < HOT_POOL_SIZE + TAIL_POOL_SIZE:
        text = make_expression(rng)
        canonical = dsl.unparse(dsl.parse(text))
        if canonical not in seen:
            seen.add(canonical)
            pool.append(text)
    return pool[:HOT_POOL_SIZE], pool[HOT_POOL_SIZE:]


def session_requests(seed, count=SESSION_REQUESTS):
    """The seeded request list: (op, expression, order, params) tuples.

    Exactly HOT_SHARE of the requests come from the hot pool with Zipf(1.1)
    popularity, the rest from the tail pool without replacement (cycling
    through it in a seeded order).  Op kinds, and the orders within each
    pool's share, are dealt in fixed proportions and shuffled, so seeds
    differ in which inputs they draw, not in the mix or the amount of work.
    """
    rng = random.Random(seed)
    hot, tail = expression_pools()
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(hot))]
    n_hot = round(count * HOT_SHARE)
    rng.shuffle(tail)
    pairs = [(expr, SESSION_ORDERS[i % len(SESSION_ORDERS)])
             for i, expr in enumerate(rng.choices(hot, weights, k=n_hot))]
    pairs += [(tail[i % len(tail)], SESSION_ORDERS[i % len(SESSION_ORDERS)])
              for i in range(count - n_hot)]
    ops = []
    for op, share in OP_MIX:
        ops += [op] * round(count * share)
    ops = (ops + ["expand"] * count)[:count]
    rng.shuffle(pairs)
    rng.shuffle(ops)
    requests = []
    for (expr, order), op in zip(pairs, ops):
        if op == "mod":
            params = (rng.choice((2, 3, 4, 5, 8, 16)),)
        elif op == "scan":
            period = rng.randint(2, 7)
            residue = rng.randrange(period)
            if rng.random() < 0.5:
                params = (period, residue, rng.choice(("+", "-")), None)
            else:
                params = (period, residue, None, rng.choice((2, 3, 4, 5)))
        elif op == "period":
            params = (rng.randint(2, 10),)
        else:
            params = ()
        requests.append((op, expr, order, params))
    return requests


def serve(request):
    """Answer one request through the public API; returns a JSON-able result."""
    op, expr, order, params = request
    node = dsl.parse(expr)
    if op == "scan":
        period, residue, sign, divisor = params
        spec = verify.ScanSpec(name=expr, target=node, period=period, residue=residue,
                               sign=sign, divisor=divisor, max_n=order)
        return _report_result(verify.scan(spec, report_only=True))
    series = dsl.evaluate(node, order)
    if op == "mod":
        return list(series.reduce_mod(params[0]).coeffs)
    if op == "period":
        return _report_result(
            verify.period_check(series, params[0], order // 2, name=expr, report_only=True))
    return list(series.coeffs)


def _report_result(report):
    violation = list(report.first_violation) if report.first_violation else None
    return [report.status, report.certified_order, violation,
            report.detail.get("minimal_prefix")]


def oracle(request, coeffs):
    """The expected answer to ``request`` computed from verified coefficients
    by the benchmark's own loops, independent of the program's scan code."""
    op, expr, order, params = request
    if op == "expand":
        return list(coeffs)
    if op == "mod":
        return [c % params[0] for c in coeffs]
    if op == "scan":
        period, residue, sign, divisor = params
        for n in range(residue, order, period):
            value = coeffs[n]
            if sign == "+":
                bad = value <= 0
            elif sign == "-":
                bad = value >= 0
            else:
                bad = value % divisor != 0
            if bad:
                return [REPORT_ONLY_FAIL, order, [n, value], None]
        return [REPORT_ONLY_PASS, order, None, None]
    period = params[0]
    classes = [0 if c == 0 else (1 if c > 0 else -1) for c in coeffs]
    minimal = 0
    for r in range(period):
        indices = range(r, order, period)
        final = classes[indices[-1]]
        for n in reversed(indices):
            if classes[n] != final:
                minimal = max(minimal, n + 1)
                break
    if minimal <= order // 2:
        return [REPORT_ONLY_PASS, order, None, minimal]
    return [REPORT_ONLY_FAIL, order, [minimal - 1, coeffs[minimal - 1]], minimal]


def result_order(request, result):
    """Certified order of one answer: series length, or the report's order."""
    return len(result) if request[0] in ("expand", "mod") else result[1]


def run_session(seed, reference=None, after_pass=_nothing, requests=None):
    """Closed loop, one caller: each request is sent when the previous returns."""
    reference = reference if reference is not None else load_reference("session")
    requests = requests if requests is not None else session_requests(seed)
    results, ops_ms, failures = [], [], {}
    start = _now()
    for index, request in enumerate(requests):
        t0 = _now()
        try:
            result = serve(request)
        except Exception as exc:
            result = None
            failures[index] = f"{type(exc).__name__}: {exc}"
        ops_ms.append((_now() - t0) / 1e6)
        results.append(result)
    wall_s = (_now() - start) / 1e9
    peak_rss_mb = _peak_rss_mb()
    after_pass()
    check_session(seed, requests, results, reference, failures)
    return {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_ms": ops_ms,
        "certified_coeffs": sum(result_order(q, r) for q, r in zip(requests, results)
                                if r is not None),
        "attempted": len(requests),
        "failed": len(failures),
        "failures": failures,
    }


def check_session(seed, requests, results, reference, failures):
    """Record failing request index -> reason in ``failures``.

    Every answer must equal the oracle applied to coefficients whose digest
    matches the reference; for the default seed the digest of all answers
    must match too; and a seeded sample recomputed after clearing the caches
    must equal the cache-served answers.
    """
    table = reference["series"]
    for index, (request, result) in enumerate(zip(requests, results)):
        if result is None:
            continue
        op, expr, order, _ = request
        coeffs = dsl.evaluate(dsl.parse(expr), order).coeffs
        if digest(list(coeffs)) != table.get(expr, {}).get(str(order)):
            failures[index] = f"coefficients of {expr} at order {order} differ"
        elif result != oracle(request, coeffs):
            failures[index] = f"{op} answer differs from the oracle"
    if seed == reference["default_seed"] and len(requests) == SESSION_REQUESTS:
        if digest(results) != reference["default_digest"] and not failures:
            failures[-1] = "digest of all answers differs from the reference"
    rng = random.Random(seed + 1)
    sample = rng.sample(range(len(requests)), min(RECHECK_SAMPLE, len(requests)))
    dsl.clear_cache()
    catalog.clear_cache()
    for index in sample:
        if results[index] is None:
            continue
        try:
            fresh = serve(requests[index])
        except Exception as exc:
            fresh = f"{type(exc).__name__}: {exc}"
        if fresh != results[index]:
            failures[index] = "recomputed answer differs from the cache-served one"


def session_properties(requests):
    """Shares of the request list that decide how much the caches can help."""
    seen_pairs, seen_exprs = set(), set()
    exact = new_order = special = 0
    for op, expr, order, params in requests:
        if (expr, order) in seen_pairs:
            exact += 1
        elif expr in seen_exprs:
            new_order += 1
        seen_pairs.add((expr, order))
        seen_exprs.add(expr)
        if " + " in expr or " - " in expr or has_unpaired_poch(expr):
            special += 1
    n = len(requests)
    return {
        "repeat_exact_share": exact / n,
        "repeat_expr_new_order_share": new_order / n,
        "unpaired_poch_or_sum_share": special / n,
    }


_POCH_RE = re.compile(r"poch\((\d+),(\d+)\)")


def has_unpaired_poch(expr):
    """True if some poch(a,m) in ``expr`` has no partner poch(m-a,m)."""
    counts = Counter((int(a), int(m)) for a, m in _POCH_RE.findall(expr))
    for (a, m), k in list(counts.items()):
        partner = (m - a, m)
        if partner == (a, m):
            counts[(a, m)] = k % 2
        else:
            paired = min(counts[(a, m)], counts[partner])
            counts[(a, m)] -= paired
            counts[partner] -= paired
    return any(counts.values())


RUNNERS = {"suite": run_suite, "deep": run_deep, "session": run_session}
