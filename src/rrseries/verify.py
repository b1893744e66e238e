"""Verification engine: identity checks, sign/divisibility scans, periodicity.

Items are pure and independent; the suite reports them in a fixed order,
whichever of its two processes ran them, so reports are deterministic
apart from timing.  Certified orders are the orders actually compared,
never the orders requested.  Congruence records and divisibility scans
read exact coefficients and reduce them mod m, so a violation reports the
unreduced value.

The suite's sign patterns and congruences are the rows of two claim
tables, ``SIGN_PATTERNS`` and ``CONGRUENCES``, with their conjectured
twins ``CONJECTURED_SIGNS`` and ``CONJECTURED_CONGRUENCES``; one builder,
``_scan_specs``, turns every row into its scans.
"""

import os
import time

from . import catalog, dsl, partitions
from ._record import Record
from .errors import BudgetExceeded, RRSeriesError
from .report import first_violation, make_report
from .series import Series

SIGN_POS = "+"
SIGN_NEG = "-"


class ScanSpec(Record):
    """Sign or divisibility scan along the progression t*n + r.

    ``target`` is a DSL expression tree or a catalog tag.  ``sign`` is
    '+' or '-' for sign scans, ``divisor`` an int >= 2 for divisibility
    scans (exactly one of the two must be set).  ``exceptions`` are
    absolute indices allowed to violate.  Zero coefficients violate sign
    scans unless excepted.
    """

    __slots__ = ()
    _fields = ("name", "target", "period", "residue", "sign", "divisor", "exceptions", "max_n")

    def __new__(cls, name, target, period, residue, sign=None, divisor=None, exceptions=(),
                max_n=2000):
        if period < 1:
            raise ValueError("period must be >= 1")
        if not 0 <= residue < period:
            raise ValueError(f"residue {residue} not in [0, {period})")
        if (sign is None) == (divisor is None):
            raise ValueError("exactly one of sign/divisor must be given")
        if sign is not None and sign not in (SIGN_POS, SIGN_NEG):
            raise ValueError("sign must be '+' or '-'")
        if divisor is not None and divisor < 2:
            raise ValueError("divisor must be >= 2")
        return Record.__new__(cls, name, target, period, residue, sign, divisor,
                              tuple(sorted(exceptions)), max_n)


def resolve_target(target, order):
    """``target`` (a catalog tag, a Series or a DSL tree) to ``order`` terms."""
    if isinstance(target, str):
        return catalog.named_series(target, order)
    if isinstance(target, Series):
        return target.truncate(order)
    return dsl.evaluate(target, order)


def verify_identity(record, order):
    """Check one identity record to ``order`` coefficients.

    Equalities compare exact coefficients of both sides; congruences
    compare the exact difference with zero mod m, and a violation shows
    the unreduced difference.  Evaluation errors become a fail report
    carrying the diagnostic as ``detail["error"]``, which the text
    report prints, except :class:`BudgetExceeded`, which
    propagates: the run stops with the budget's message before it builds
    anything, instead of reporting every record as failing at n = 0.
    """
    start = time.perf_counter()
    try:
        lhs = dsl.evaluate(record.lhs, order)
        rhs = dsl.evaluate(record.rhs, order)
    except BudgetExceeded:
        raise
    except RRSeriesError as exc:
        return make_report(record.name, (0, 0), 0, start, detail={"error": str(exc)})
    difference = (lhs - rhs).coeffs
    if record.is_congruence:
        difference = [d if d % record.modulus else 0 for d in difference]
    violation = first_violation((d, 0) for d in difference)
    return make_report(record.name, violation, len(difference), start)


def scan(spec, report_only=False):
    """Run one sign/divisibility scan below spec.max_n, or below the order of
    a target that is a :class:`Series` when that is lower.

    Both kinds read the exact coefficients, so a violation reports the
    unreduced coefficient.  A scan with no index below the limit on its
    progression outside ``exceptions`` would pass without checking
    anything: it raises ValueError, before any series is built.
    """
    start = time.perf_counter()
    limit = spec.max_n
    if isinstance(spec.target, Series):
        limit = min(limit, spec.target.order)
    check_not_vacuous(spec, limit)
    series = resolve_target(spec.target, limit)

    sign, divisor, exceptions = spec.sign, spec.divisor, spec.exceptions

    def bad(value):
        if sign is None:
            return value % divisor != 0
        return value <= 0 if sign == SIGN_POS else value >= 0

    violation = next(
        ((n, series[n]) for n in range(spec.residue, limit, spec.period)
         if n not in exceptions and bad(series[n])),
        None,
    )
    return make_report(spec.name, violation, limit, start, report_only)


def check_not_vacuous(spec, limit):
    """Raise ValueError if ``spec`` has no index below ``limit`` on its
    progression outside its exceptions: a scan of it would check nothing."""
    if all(n in spec.exceptions for n in range(spec.residue, limit, spec.period)):
        raise ValueError(
            f"{spec.name}: no index n < {limit} with n = {spec.residue} (mod {spec.period})"
            " outside the exceptions, so the scan would check nothing"
        )


def check_period_args(period, prefix, order):
    """Raise ValueError unless ``period >= 1``, ``0 <= prefix < order`` and
    ``order - prefix > period``, so some residue class has two indices to
    compare.

    Cheap, so a caller can run it before building an order-``order`` series.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if not 0 <= prefix < order:
        raise ValueError(f"prefix must be in [0, {order}), the series order")
    if order - prefix <= period:
        raise ValueError(f"order - prefix = {order - prefix} is not above the period {period}:"
                         " no residue class has two indices to compare")


def period_check(series, period, prefix, name="period check", report_only=False):
    """Check that sign(series[n]) depends only on n mod ``period`` for n >= ``prefix``.

    Zero counts as its own sign class.  Also reports the minimal prefix
    from which the signs are consistent, without claiming it final
    beyond the certified order.
    """
    check_period_args(period, prefix, series.order)
    start = time.perf_counter()

    def sign_class(v):
        return 0 if v == 0 else (1 if v > 0 else -1)

    order = series.order
    # Last index (per residue class) whose sign differs from the class's
    # final sign; the minimal consistent prefix is one past the latest.
    minimal_prefix = 0
    for r in range(period):
        indices = range(r, order, period)
        if not indices:
            continue
        final = sign_class(series[indices[-1]])
        for n in reversed(indices):
            if sign_class(series[n]) != final:
                minimal_prefix = max(minimal_prefix, n + 1)
                break
    violation = None
    if minimal_prefix > prefix:
        violation = (minimal_prefix - 1, series[minimal_prefix - 1])
    return make_report(name, violation, order, start, report_only,
                       {"minimal_prefix": minimal_prefix, "period": period})


# ---------------------------------------------------------------------------
# The standard suite


# (tag, pattern, exceptions): character r of ``pattern`` is the sign of
# tag(5n+r), '.' where nothing is claimed.  ``exceptions`` are absolute
# indices; each residue's scan keeps the ones congruent to it.
SIGN_PATTERNS = (
    ("A", ".+++-", ()), ("B", ".-+-+", ()),
    ("C", "--+-+", (0,)), ("D", "-.++-", (0,)),
    ("c", "++---", (2, 4, 9)), ("d", "+-+--", (3, 8, 13, 23)),
)

# (tag, period, residues, modulus): tag(period*n + r) = 0 (mod modulus) for
# each r in ``residues``.
CONGRUENCES = (
    ("A", 9, (4,), 3), ("B", 9, (2,), 3),
    ("A", 16, (13,), 4), ("B", 16, (11,), 4),
    ("A", 15, (4, 8, 13, 14), 15), ("B", 15, (2, 6, 11, 12), 15),
    ("C", 15, (3, 13), 30), ("D", 15, (7, 12), 30),
)

# The open sign patterns and congruences, in the same two shapes.  A(5n)
# and B(5n) carry the constant-term exception n = 0 (A(0) = B(0) = 1), as
# the proved C(5n) and D(5n) patterns do.
CONJECTURED_SIGNS = (("A", "-....", (0,)), ("B", "-....", (0,)), ("D", ".+...", ()))

CONJECTURED_CONGRUENCES = (
    ("C", 27, (18,), 3), ("D", 27, (18,), 3),
    ("C", 16, (12,), 4), ("D", 16, (12,), 4),
    ("C", 32, (28,), 8), ("D", 32, (28,), 8),
)


def _scan_specs(signs, congruences, max_n, conjecture=False):
    """One scan below ``max_n`` per claim of a sign table and a congruence
    table, sign scans first, each named as the paper states it.  A
    conjecture's name says so and writes its exceptions as ``n=0``, the
    proved form as ``n in [0]``."""
    prefix = "conjecture: " if conjecture else ""
    specs = []
    for tag, pattern, exceptions in signs:
        for residue, sign in enumerate(pattern):
            if sign == ".":
                continue
            excepted = tuple(n for n in exceptions if n % 5 == residue)
            term = f"{tag}(5n+{residue})" if residue else f"{tag}(5n)"
            name = f"{prefix}{term} {'> 0' if sign == SIGN_POS else '< 0'}"
            if excepted:
                name += (f" except n={', '.join(map(str, excepted))}" if conjecture
                         else f" except n in {list(excepted)}")
            specs.append(ScanSpec(name=name, target=tag, period=5, residue=residue,
                                  sign=sign, exceptions=excepted, max_n=max_n))
    for tag, period, residues, modulus in congruences:
        specs.extend(
            ScanSpec(name=f"{prefix}{tag}({period}n+{residue}) = 0 (mod {modulus})",
                     target=tag, period=period, residue=residue, divisor=modulus,
                     max_n=max_n)
            for residue in residues)
    return specs


# (name, series, constraint, tuple length): the coefficients of the DSL
# text ``series`` count the ordered ``tuple length``-tuples of partitions
# whose parts obey ``constraint``.
PARTITION_ORACLES = (
    ("25-regular counts match f25/f1", "f25/f1", partitions.B25, 1),
    ("two-color counts match f25*R(q^5)/f1", "f25*R(q^5)/f1", partitions.F_TWO_COLOR, 1),
    ("5-tuple (+-1 mod 5) counts match 1/(q,q^4;q^5)^5", "1/(poch(1,5)^5*poch(4,5)^5)",
     partitions.PM1_MOD5, 5),
    ("5-tuple (+-2 mod 5) counts match 1/(q^2,q^3;q^5)^5", "1/(poch(2,5)^5*poch(3,5)^5)",
     partitions.PM2_MOD5, 5),
)


def _oracle_reports(limit, link_limit):
    """The partition oracles for n <= ``limit``, the oracle links below
    ``link_limit`` and three spot values of D.  Each item is timed from
    before its series and its partition counts are built."""
    reports = []
    for name, text, constraint, tuple_length in PARTITION_ORACLES:
        start = time.perf_counter()
        series = dsl.evaluate(dsl.parse(text), limit + 1)
        pairs = zip(partitions.counts(constraint, limit, tuple_length), series.coeffs)
        reports.append(make_report(f"{name} for n <= {limit}", first_violation(pairs),
                                   limit + 1, start))
    reports.extend(catalog.linking_relations(link_limit, catalog.ORACLE_LINKS))
    start = time.perf_counter()
    d_series = catalog.named_series("D", 14)
    pairs = zip((d_series[3], d_series[8], d_series[13]), (5, 25, 155))
    reports.append(make_report("spot values D(3)=5, D(8)=25, D(13)=155",
                               first_violation(pairs), 14, start))
    return reports


def _load_checked(path, order):
    """The records of the manifest at ``path``, each side checked against the
    evaluation budget at ``order`` first, so a record the budget refuses
    stops the run before any record is built."""
    records = dsl.load_manifest(path)
    for record in records:
        dsl.check_budget(record.lhs, order)
        dsl.check_budget(record.rhs, order)
    return records


def verify_manifest(path, order):
    """Verify every record of the manifest at ``path`` to ``order`` coefficients."""
    return [verify_identity(record, order) for record in _load_checked(path, order)]


def run_paper_suite(order=500, scan_order=2000, manifest_path=None):
    """Run the full standard suite and return reports in fixed order.

    Sections: the identity manifest at ``order``; the proved sign scans,
    congruence scans, and linking relations below ``scan_order``; the
    partition-oracle cross-checks; sign periodicity of three further
    product families; and the open conjectures as report-only items.

    Every manifest record and every scan is first checked against the
    evaluation budget, and every scan against vacuity, so an ``order`` or
    a ``scan_order`` that one item would refuse stops the run before
    anything is built.  The records whose trees need the largest order
    (:func:`dsl.needed_order`), the partition oracles and the
    alpha/beta check build nothing the other items use, so they run in
    one worker process beside the rest (:func:`rrseries._worker.run`).
    """
    from . import _worker

    if manifest_path is None:
        manifest_path = default_manifest_path()
    records = _load_checked(manifest_path, order)
    proved = _scan_specs(SIGN_PATTERNS, CONGRUENCES, scan_order)
    conjectured = _scan_specs(CONJECTURED_SIGNS, CONJECTURED_CONGRUENCES, scan_order,
                              conjecture=True)
    for spec in proved + conjectured:
        check_not_vacuous(spec, spec.max_n)
        dsl.check_budget(catalog.node(spec.target), spec.max_n)
    needed = [max(dsl.needed_order(r.lhs, order), dsl.needed_order(r.rhs, order))
              for r in records]
    deepest = max(needed, default=None)
    # (in the worker, function returning a list of reports), in suite order
    items = [(n == deepest, lambda r=r: [verify_identity(r, order)])
             for r, n in zip(records, needed)]
    items.append((False, lambda: [scan(spec) for spec in proved]))
    items.append((False, lambda: catalog.linking_relations(scan_order)))
    items.append((True, lambda: _oracle_reports(300, min(1000, scan_order))))
    items.append((True, lambda: [partitions.check_alpha_beta(500)]))
    for m, r in ((7, 1), (11, 2), (13, 3)):
        items.append((False, lambda m=m, r=r: [period_check(
            catalog.f_mrs(m, 2 * r, r, scan_order), m, prefix=scan_order // 2,
            name=f"sign periodicity of F({m},{2*r},{r}), period {m}")]))
    items.append((False, lambda: [scan(spec, report_only=True) for spec in conjectured]))
    return [report for reports in _worker.run(items) for report in reports]


def default_manifest_path():
    return os.path.join(os.path.dirname(__file__), "data", "identities.manifest")
