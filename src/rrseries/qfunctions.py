"""Constructors for the classical q-objects.

Pochhammer products (q^a; q^m)_inf and their finite versions, Euler
products f_k = (q^k; q^k)_inf, eta quotients, and Ramanujan's theta
function f(a, b) with its named specializations phi, psi, chi.

Where the literature supplies two routes to the same object (a bilateral
sum and a triple-product form, or a pentagonal-number expansion and a
raw product) both are implemented so they can cross-check each other.
"""

from dataclasses import dataclass

from . import _backend
from .errors import InvalidTheta
from .series import Series


def _binomial_product(factors, order):
    """Product of (1 + coef*q^e) over ``factors`` (pairs (e, coef)), truncated.

    ``factors`` must come in increasing exponent order: the product stops
    at the first exponent >= ``order``, so a long finite product costs no
    more than the truncation needs.
    """
    c = [1] + [0] * (order - 1)
    for e, coef in factors:
        if e >= order:
            break
        _backend.binomial_update(c, e, coef, order)
    return Series(c)


def pochhammer_inf(a, m, order):
    """(q^a; q^m)_inf = prod_{k>=0} (1 - q^(a + k*m)), truncated to ``order``."""
    if a < 1 or m < 1:
        raise ValueError("pochhammer_inf needs a >= 1 and m >= 1")
    return _binomial_product(((e, -1) for e in range(a, order, m)), order)


def pochhammer_fin(a, m, n, order):
    """(q^a; q^m)_n, the finite product of n binomials."""
    if n < 0:
        raise ValueError("pochhammer_fin needs n >= 0")
    if a < 1 or m < 1:
        raise ValueError("pochhammer_fin needs a >= 1 and m >= 1")
    return _binomial_product(((a + k * m, -1) for k in range(n)), order)


def signed_pochhammer_inf(sign, a, ratio_sign, m, order):
    """prod_{k>=0} (1 - sign * ratio_sign^k * q^(a + k*m)), truncated.

    Generalizes ``pochhammer_inf`` to arguments with negative signs, e.g.
    (-q^a; q^m)_inf is ``signed_pochhammer_inf(-1, a, +1, m, N)``.  The
    exponent ``a`` may be 0 (the factor degenerates to the constant
    1 - sign), but ``m`` must be positive so the product terminates.
    """
    if m < 1:
        raise ValueError("ratio exponent m must be >= 1")
    if a < 0:
        raise ValueError("exponent a must be >= 0")

    def factors():
        s = sign
        for e in range(a, order, m):
            yield e, -s
            s *= ratio_sign

    return _binomial_product(factors(), order)


def euler_f(k, order):
    """f_k = (q^k; q^k)_inf via the pentagonal number expansion.

    Euler: (q; q)_inf = sum_j (-1)^j q^(j(3j-1)/2) over all integers j,
    so f_k is the same sparse series with exponents scaled by k.
    """
    if k < 1:
        raise ValueError("euler_f needs k >= 1")
    c = [0] * order
    j = 0
    while True:
        e1 = k * j * (3 * j - 1) // 2
        e2 = k * j * (3 * j + 1) // 2
        if e1 >= order and e2 >= order:
            break
        sign = 1 if j % 2 == 0 else -1
        if e1 < order:
            c[e1] += sign
        if j and e2 < order:
            c[e2] += sign
        j += 1
    return Series(c)


@dataclass(frozen=True)
class EtaQuotientSpec:
    """Product prod f_k^e over ``factors``; duplicate k merged by summing e."""

    factors: tuple

    def __init__(self, factors):
        merged = {}
        for k, e in factors:
            if k < 1:
                raise ValueError(f"f_{k} is not defined; k must be >= 1")
            merged[k] = merged.get(k, 0) + e
        items = tuple(sorted((k, e) for k, e in merged.items() if e != 0))
        object.__setattr__(self, "factors", items)


def eta_quotient(spec, order):
    """Evaluate an :class:`EtaQuotientSpec` as a truncated series."""
    num = Series.one(order)
    den = Series.one(order)
    for k, e in spec.factors:
        fk = euler_f(k, order)
        if e > 0:
            num = num * fk**e
        else:
            den = den * fk ** (-e)
    return num * den.invert()


@dataclass(frozen=True)
class ThetaSpec:
    """f(sign_a * q^r, sign_b * q^s) with monomial arguments only."""

    sign_a: int
    r: int
    sign_b: int
    s: int

    def __post_init__(self):
        if self.sign_a not in (1, -1) or self.sign_b not in (1, -1):
            raise ValueError("theta signs must be +1 or -1")
        if self.r < 0 or self.s < 0:
            raise ValueError("theta exponents must be >= 0")
        if self.r + self.s < 1:
            raise InvalidTheta("f(a, b) needs r + s >= 1")


def theta_general(spec, order):
    """Bilateral sum form: sum_k a^(k(k+1)/2) * b^(k(k-1)/2), truncated.

    With a = sign_a q^r and b = sign_b q^s the k-th term has exponent
    r*k(k+1)/2 + s*k(k-1)/2 and sign sign_a^(k(k+1)/2) * sign_b^(k(k-1)/2).
    Both k directions terminate because r + s >= 1.
    """
    c = [0] * order
    for step in (1, -1):
        k = 0 if step == 1 else -1
        while True:
            ta = k * (k + 1) // 2
            tb = k * (k - 1) // 2
            e = spec.r * ta + spec.s * tb
            if e >= order:
                break
            sign = (spec.sign_a if ta % 2 else 1) * (spec.sign_b if tb % 2 else 1)
            c[e] += sign
            k += step
    return Series(c)


def theta_product(spec, order):
    """Jacobi triple product form: (-a; ab)_inf (-b; ab)_inf (ab; ab)_inf."""
    sa, r, sb, s = spec.sign_a, spec.r, spec.sign_b, spec.s
    sab = sa * sb
    m = r + s
    p1 = signed_pochhammer_inf(-sa, r, sab, m, order)
    p2 = signed_pochhammer_inf(-sb, s, sab, m, order)
    p3 = signed_pochhammer_inf(sab, m, sab, m, order)
    return p1 * p2 * p3


def phi(order):
    """phi(q) = f(q, q) = 1 + 2q + 2q^4 + 2q^9 + ..."""
    return theta_general(ThetaSpec(1, 1, 1, 1), order)


def psi(order):
    """psi(q) = f(q, q^3) = sum_{k>=0} q^(k(k+1)/2)."""
    return theta_general(ThetaSpec(1, 1, 1, 3), order)


def chi(order):
    """chi(q) = (-q; q^2)_inf."""
    return signed_pochhammer_inf(-1, 1, 1, 2, order)


def chi_neg(order):
    """chi(-q) = (q; q^2)_inf."""
    return pochhammer_inf(1, 2, order)
