"""Named series around the Rogers-Ramanujan continued fraction.

Every tag is an expression of the identity DSL (``DEFINITIONS``), parsed
once and evaluated by :func:`rrseries.dsl.evaluate`, so the catalog uses
the evaluator's one cache and aliases share one entry.  Everything is
built from Pochhammer products (never from continued fraction
convergents): G and H are the Rogers-Ramanujan products, R = H/G is the
normalized continued fraction, and the derived families are

    A = 1/R^5(q),   B = R^5(q),   C = R^5(q)/R(q^5),   D = R(q^5)/R^5(q),
    c = 1/R,        d = R,        b25 = f_25/f_1,      Fcolored = f_25 R(q^5)/f_1.

The quartic combinations ``np_dp_polynomials`` and the general
four-Pochhammer quotient F_{m,r,s} live here too, plus the seven
coefficient-level linking relations tying A, B, C, D together.
"""

import time

from . import dsl
from .errors import SpecOutOfRange
# Unused here, but perfbench/tracing.py wraps catalog.pochhammer_inf and catalog.euler_f.
from .qfunctions import euler_f, pochhammer_inf  # noqa: F401
from .report import FAIL, PASS, VerificationReport

# Written so that evaluation does the fewest ring operations: D inverts C,
# and Npoly/Dpoly are Horner forms in x = q*R(q^5) of
# 1 - 2x + 4x^2 - 3x^3 + x^4 and 1 + 3x + 4x^2 + 2x^3 + x^4.
DEFINITIONS = {
    "G": "G(q)",
    "H": "H(q)",
    "R": "R(q)",
    "Rinv": "R(q)^-1",
    "A": "R(q)^-5",
    "B": "R(q)^5",
    "C": "R(q)^5/R(q^5)",
    "D": "(R(q)^5/R(q^5))^-1",
    "c": "R(q)^-1",
    "d": "R(q)",
    "Npoly": "1 + q*R(q^5)*(-2 + q*R(q^5)*(4 + q*R(q^5)*(-3 + q*R(q^5))))",
    "Dpoly": "1 + q*R(q^5)*(3 + q*R(q^5)*(4 + q*R(q^5)*(2 + q*R(q^5))))",
    "b25": "f25/f1",
    "Fcolored": "f25*R(q^5)/f1",
}

TAGS = tuple(DEFINITIONS)

_NODES = {tag: dsl.parse(text) for tag, text in DEFINITIONS.items()}

# No sign is asserted for D(5n+1); it is conjecturally positive and is
# handled by the report-only scanner, not the theorem scans.
CONJECTURAL_SIGNS = {("D", 5, 1): "+"}


def parent_order(order, t, j=None):
    """Order a parent series must have so its t-dissection certifies ``order``.

    Residue j needs t*(order-1) + j + 1 coefficients; without a specific
    residue the bound for the worst one (j = t-1) is t*order.
    """
    if j is None:
        return t * order
    return t * (order - 1) + j + 1


def named_series(tag, order):
    """Catalog lookup: the series ``tag`` truncated to ``order``."""
    if tag not in _NODES:
        raise SpecOutOfRange(f"unknown series tag {tag!r}")
    return dsl.evaluate(_NODES[tag], order)


def clear_cache():
    """Empty the evaluator's cache, which holds the catalog's series too."""
    dsl.clear_cache()


def np_dp_polynomials(order):
    """The two quartic-in-R(q^5) combinations (numerator, denominator)."""
    return named_series("Npoly", order), named_series("Dpoly", order)


def f_mrs(m, r, s, order):
    """F_{m,r,s} = (q^r, q^(m-r); q^m)_inf / (q^s, q^(m-s); q^m)_inf."""
    if not (1 <= r < m and 1 <= s < m):
        raise SpecOutOfRange(f"need 1 <= r, s < m; got m={m}, r={r}, s={s}")
    num = dsl.Mul(dsl.Poch(r, m), dsl.Poch(m - r, m))
    den = dsl.Mul(dsl.Poch(s, m), dsl.Poch(m - s, m))
    return dsl.evaluate(dsl.Div(num, den), order)


# (name, lhs tag, lhs multiplier, lhs residue, rhs tag, rhs multiplier, rhs residue)
LINKING_RELATIONS = (
    ("B(5n+1) = -A(5n+3)", "B", 1, 1, "A", -1, 3),
    ("B(5n+2) = -A(5n+4)", "B", 1, 2, "A", -1, 4),
    ("2C(5n+1) = -A(5n+2)", "C", 2, 1, "A", -1, 2),
    ("C(5n+3) = 2A(5n+4)", "C", 1, 3, "A", 2, 4),
    ("D(5n) = C(5n)", "D", 1, 0, "C", 1, 0),
    ("D(5n+2) = 2A(5n+3)", "D", 1, 2, "A", 2, 3),
    ("2D(5n+4) = B(5n+3)", "D", 2, 4, "B", 1, 3),
)


def linking_relations(order):
    """Check the seven cross-family coefficient identities below ``order``.

    Both sides are compared for every n with 5n + residue < order.
    """
    reports = []
    for name, ltag, lmul, lres, rtag, rmul, rres in LINKING_RELATIONS:
        start = time.perf_counter()
        left = named_series(ltag, order).dissect(5, lres)
        right = named_series(rtag, order).dissect(5, rres)
        n = min(left.order, right.order)
        violation = None
        for i in range(n):
            lv = lmul * left[i]
            rv = rmul * right[i]
            if lv != rv:
                violation = (i, lv - rv)
                break
        reports.append(
            VerificationReport(
                name=name,
                status=PASS if violation is None else FAIL,
                certified_order=n,
                first_violation=violation,
                elapsed=time.perf_counter() - start,
            )
        )
    return reports
