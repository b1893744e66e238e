"""Verification engine: identity checks, sign/divisibility scans, periodicity.

Items are pure and independent; the suite runs them in a fixed order so
reports are deterministic apart from timing.  Certified orders are the
orders actually compared, never the orders requested.
"""

import time
from dataclasses import dataclass

from . import catalog, dsl, partitions
from .errors import RRSeriesError
from .report import (
    FAIL,
    PASS,
    REPORT_ONLY_FAIL,
    REPORT_ONLY_PASS,
    VerificationReport,
)
from .series import Series

SIGN_POS = "+"
SIGN_NEG = "-"


@dataclass(frozen=True)
class ScanSpec:
    """Sign or divisibility scan along the progression t*n + r.

    ``target`` is a DSL expression tree or a catalog tag.  ``sign`` is
    '+' or '-' for sign scans, ``divisor`` an int >= 2 for divisibility
    scans (exactly one of the two must be set).  ``exceptions`` are
    absolute indices allowed to violate.  Zero coefficients violate sign
    scans unless excepted.
    """

    name: str
    target: object
    period: int
    residue: int
    sign: str | None = None
    divisor: int | None = None
    exceptions: tuple = ()
    max_n: int = 2000

    def __post_init__(self):
        if not 0 <= self.residue < self.period:
            raise ValueError(f"residue {self.residue} not in [0, {self.period})")
        if (self.sign is None) == (self.divisor is None):
            raise ValueError("exactly one of sign/divisor must be given")
        if self.sign is not None and self.sign not in (SIGN_POS, SIGN_NEG):
            raise ValueError("sign must be '+' or '-'")
        if self.divisor is not None and self.divisor < 2:
            raise ValueError("divisor must be >= 2")
        object.__setattr__(self, "exceptions", tuple(sorted(self.exceptions)))


def _resolve_target(target, order):
    if isinstance(target, str):
        return catalog.named_series(target, order)
    if isinstance(target, Series):
        return target.truncate(order)
    return dsl.evaluate(target, order)


def verify_identity(record, order):
    """Check one identity record to ``order`` coefficients.

    Equalities compare exact coefficients of both sides; congruences
    reduce the difference mod m so negative values normalize uniformly.
    Evaluation errors become a fail report carrying the diagnostic.
    """
    start = time.perf_counter()
    try:
        lhs = dsl.evaluate(record.lhs, order)
        rhs = dsl.evaluate(record.rhs, order)
    except RRSeriesError as exc:
        return VerificationReport(
            name=record.name,
            status=FAIL,
            certified_order=0,
            first_violation=(0, 0),
            elapsed=time.perf_counter() - start,
            detail={"error": str(exc)},
        )
    joint = min(lhs.order, rhs.order)
    difference = lhs.truncate(joint) - rhs.truncate(joint)
    violation = None
    if record.is_congruence:
        reduced = difference.reduce_mod(record.modulus)
        for n in range(joint):
            if reduced[n]:
                violation = (n, difference[n])
                break
    else:
        for n in range(joint):
            if difference[n]:
                violation = (n, difference[n])
                break
    return VerificationReport(
        name=record.name,
        status=PASS if violation is None else FAIL,
        certified_order=joint,
        first_violation=violation,
        elapsed=time.perf_counter() - start,
    )


def scan(spec, order=None, report_only=False):
    """Run one sign/divisibility scan below ``order`` (default spec.max_n)."""
    start = time.perf_counter()
    limit = spec.max_n if order is None else order
    series = _resolve_target(spec.target, limit)
    limit = min(limit, series.order)
    violation = None
    n = spec.residue
    while n < limit:
        value = series[n]
        if n not in spec.exceptions:
            if spec.sign is not None:
                bad = value <= 0 if spec.sign == SIGN_POS else value >= 0
            else:
                bad = value % spec.divisor != 0
            if bad:
                violation = (n, value)
                break
        n += spec.period
    if violation is None:
        status = REPORT_ONLY_PASS if report_only else PASS
    else:
        status = REPORT_ONLY_FAIL if report_only else FAIL
    return VerificationReport(
        name=spec.name,
        status=status,
        certified_order=limit,
        first_violation=violation,
        elapsed=time.perf_counter() - start,
    )


def period_check(series, period, prefix, name="period check", report_only=False):
    """Check that sign(series[n]) depends only on n mod ``period`` for n >= ``prefix``.

    Zero counts as its own sign class.  Also reports the minimal prefix
    from which the signs are consistent, without claiming it final
    beyond the certified order.
    """
    if period < 1:
        raise ValueError("period must be >= 1")
    if prefix >= series.order:
        raise ValueError("prefix must be below the series order")
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
    ok = minimal_prefix <= prefix
    if ok:
        status = REPORT_ONLY_PASS if report_only else PASS
        violation = None
    else:
        status = REPORT_ONLY_FAIL if report_only else FAIL
        violation = (minimal_prefix - 1, series[minimal_prefix - 1])
    return VerificationReport(
        name=name,
        status=status,
        certified_order=order,
        first_violation=violation,
        elapsed=time.perf_counter() - start,
        detail={"minimal_prefix": minimal_prefix, "period": period},
    )


# ---------------------------------------------------------------------------
# The standard suite


def _sign_scan_specs(max_n):
    """Proved sign patterns for A, B, C, D and the two degree-one families."""
    table = [
        ("A", 1, SIGN_POS, ()), ("A", 2, SIGN_POS, ()),
        ("A", 3, SIGN_POS, ()), ("A", 4, SIGN_NEG, ()),
        ("B", 1, SIGN_NEG, ()), ("B", 2, SIGN_POS, ()),
        ("B", 3, SIGN_NEG, ()), ("B", 4, SIGN_POS, ()),
        ("C", 0, SIGN_NEG, (0,)), ("C", 1, SIGN_NEG, ()),
        ("C", 2, SIGN_POS, ()), ("C", 3, SIGN_NEG, ()),
        ("C", 4, SIGN_POS, ()),
        ("D", 0, SIGN_NEG, (0,)), ("D", 2, SIGN_POS, ()),
        ("D", 3, SIGN_POS, ()), ("D", 4, SIGN_NEG, ()),
        ("c", 0, SIGN_POS, ()), ("c", 1, SIGN_POS, ()),
        ("c", 2, SIGN_NEG, (2,)), ("c", 3, SIGN_NEG, ()),
        ("c", 4, SIGN_NEG, (4, 9)),
        ("d", 0, SIGN_POS, ()), ("d", 1, SIGN_NEG, ()),
        ("d", 2, SIGN_POS, ()), ("d", 3, SIGN_NEG, (3, 8, 13, 23)),
        ("d", 4, SIGN_NEG, ()),
    ]
    specs = []
    for tag, residue, sign, exceptions in table:
        word = "> 0" if sign == SIGN_POS else "< 0"
        label = f"{tag}(5n+{residue}) {word}" if residue else f"{tag}(5n) {word}"
        if exceptions:
            label += f" except n in {list(exceptions)}"
        specs.append(
            ScanSpec(
                name=label, target=tag, period=5, residue=residue,
                sign=sign, exceptions=exceptions, max_n=max_n,
            )
        )
    return specs


def _congruence_scan_specs(max_n):
    """The eight proved congruence families, one item per residue."""
    table = [
        ("A", 9, (4,), 3), ("B", 9, (2,), 3),
        ("A", 16, (13,), 4), ("B", 16, (11,), 4),
        ("A", 15, (4, 8, 13, 14), 15), ("B", 15, (2, 6, 11, 12), 15),
        ("C", 15, (3, 13), 30), ("D", 15, (7, 12), 30),
    ]
    specs = []
    for tag, period, residues, modulus in table:
        for residue in residues:
            specs.append(
                ScanSpec(
                    name=f"{tag}({period}n+{residue}) = 0 (mod {modulus})",
                    target=tag, period=period, residue=residue,
                    divisor=modulus, max_n=max_n,
                )
            )
    return specs


def _conjecture_scan_specs(max_n):
    """Open sign patterns and congruences; all report-only.

    The sign conjectures for A(5n) and B(5n) carry the constant-term
    exception n = 0 (A(0) = B(0) = 1), matching the stated exceptions
    of the proved C(5n) and D(5n) patterns.
    """
    specs = [
        ScanSpec(name="conjecture: A(5n) < 0 except n=0", target="A",
                 period=5, residue=0, sign=SIGN_NEG, exceptions=(0,), max_n=max_n),
        ScanSpec(name="conjecture: B(5n) < 0 except n=0", target="B",
                 period=5, residue=0, sign=SIGN_NEG, exceptions=(0,), max_n=max_n),
        ScanSpec(name="conjecture: D(5n+1) > 0", target="D",
                 period=5, residue=1, sign=SIGN_POS, max_n=max_n),
    ]
    table = [
        ("C", 27, 18, 3), ("D", 27, 18, 3),
        ("C", 16, 12, 4), ("D", 16, 12, 4),
        ("C", 32, 28, 8), ("D", 32, 28, 8),
    ]
    for tag, period, residue, modulus in table:
        specs.append(
            ScanSpec(
                name=f"conjecture: {tag}({period}n+{residue}) = 0 (mod {modulus})",
                target=tag, period=period, residue=residue,
                divisor=modulus, max_n=max_n,
            )
        )
    return specs


def _oracle_reports(limit, link_limit):
    """Partition-count cross-checks of series coefficients."""
    reports = []

    def add(name, pairs, order):
        start = time.perf_counter()
        violation = None
        for n, (got, expected) in enumerate(pairs):
            if got != expected:
                violation = (n, got - expected)
                break
        reports.append(
            VerificationReport(
                name=name,
                status=PASS if violation is None else FAIL,
                certified_order=order,
                first_violation=violation,
                elapsed=time.perf_counter() - start,
            )
        )

    b25_series = catalog.named_series("b25", limit + 1)
    b25_counts = partitions.counts(partitions.B25, limit)
    add(f"25-regular counts match f25/f1 for n <= {limit}",
        zip(b25_counts, b25_series.coeffs), limit + 1)

    f_series = catalog.named_series("Fcolored", limit + 1)
    f_counts = partitions.counts(partitions.F_TWO_COLOR, limit)
    add(f"two-color counts match f25*R(q^5)/f1 for n <= {limit}",
        zip(f_counts, f_series.coeffs), limit + 1)

    alpha_series = dsl.evaluate(dsl.parse("1/(poch(1,5)^5*poch(4,5)^5)"), limit + 1)
    alpha_counts = partitions.counts(partitions.PM1_MOD5, limit, tuple_length=5)
    add(f"5-tuple (+-1 mod 5) counts match 1/(q,q^4;q^5)^5 for n <= {limit}",
        zip(alpha_counts, alpha_series.coeffs), limit + 1)

    beta_series = dsl.evaluate(dsl.parse("1/(poch(2,5)^5*poch(3,5)^5)"), limit + 1)
    beta_counts = partitions.counts(partitions.PM2_MOD5, limit, tuple_length=5)
    add(f"5-tuple (+-2 mod 5) counts match 1/(q^2,q^3;q^5)^5 for n <= {limit}",
        zip(beta_counts, beta_series.coeffs), limit + 1)

    a_series = catalog.named_series("A", link_limit)
    a2 = a_series.dissect(5, 2)
    b25_long = catalog.named_series("b25", link_limit).dissect(5, 0)
    n = min(a2.order, b25_long.order)
    add(f"A(5n+2) = 10*b25(5n) below index {link_limit}",
        zip((a2[i] for i in range(n)), (10 * b25_long[i] for i in range(n))), n)

    a3 = a_series.dissect(5, 3)
    f_long = catalog.named_series("Fcolored", link_limit).dissect(5, 0)
    n = min(a3.order, f_long.order)
    add(f"A(5n+3) = 5*F(5n) below index {link_limit}",
        zip((a3[i] for i in range(n)), (5 * f_long[i] for i in range(n))), n)

    d_series = catalog.named_series("D", 14)
    add("spot values D(3)=5, D(8)=25, D(13)=155",
        zip((d_series[3], d_series[8], d_series[13]), (5, 25, 155)), 14)

    return reports


def _max_dissection_period(node):
    period = 0
    if isinstance(node, dsl.Dissect):
        period = node.t
    for field_name in getattr(node, "__dataclass_fields__", ()):
        child = getattr(node, field_name)
        if hasattr(child, "__dataclass_fields__"):
            period = max(period, _max_dissection_period(child))
    return period


def record_order(record, base_order):
    """Verification order for one record.

    A record dissecting with period t needs its parent series at t times
    its own order, so wide dissections (t > 5) are verified at a
    proportionally smaller order, floored at 300, to keep the parent
    cost in line with the rest of the manifest.
    """
    period = max(_max_dissection_period(record.lhs),
                 _max_dissection_period(record.rhs))
    if period <= 5:
        return base_order
    return max(300, base_order * 5 // period)


def run_paper_suite(order=500, scan_order=2000, manifest_path=None,
                    alpha_beta_limit=500):
    """Run the full standard suite and return reports in fixed order.

    Sections: the identity manifest at ``order``; the proved sign scans,
    congruence scans, and linking relations below ``scan_order``; the
    partition-oracle cross-checks; sign periodicity of three further
    product families; and the open conjectures as report-only items.
    """
    if manifest_path is None:
        manifest_path = default_manifest_path()
    reports = []
    for record in dsl.load_manifest(manifest_path):
        reports.append(verify_identity(record, record_order(record, order)))
    for spec in _sign_scan_specs(scan_order):
        reports.append(scan(spec))
    for spec in _congruence_scan_specs(scan_order):
        reports.append(scan(spec))
    reports.extend(catalog.linking_relations(scan_order))
    reports.extend(_oracle_reports(300, min(1000, scan_order)))
    reports.append(partitions.check_alpha_beta(alpha_beta_limit))
    for m, r in ((7, 1), (11, 2), (13, 3)):
        series = catalog.f_mrs(m, 2 * r, r, scan_order)
        reports.append(
            period_check(series, m, prefix=scan_order // 2,
                         name=f"sign periodicity of F({m},{2*r},{r}), period {m}")
        )
    for spec in _conjecture_scan_specs(scan_order):
        reports.append(scan(spec, report_only=True))
    return reports


def default_manifest_path():
    from importlib.resources import files

    return str(files("rrseries").joinpath("data/identities.manifest"))
