"""Constructors for the classical q-objects.

Pochhammer products (q^a; q^m)_inf and their finite versions, and
Ramanujan's theta function f(a, b) with the Euler products
f_k = (q^k; q^k)_inf = f(-q^k, -q^(2k)).  Its other specializations
(phi, psi, chi, G, H, R) are theta quotients of the identity DSL.
A :class:`ThetaSpec` with both exponents >= 1 is a base of the
evaluator's theta quotients: ``theta_terms`` gives its few nonzero
terms, and its ``dilate`` and ``negate_q`` follow the substitutions
q -> q^t and q -> -q.

Infinite Pochhammer products are summed by Euler's identity
(x; p)_inf = sum_k (-1)^k p^(k(k-1)/2) x^k / (p; p)_k, which needs about
sqrt(2N/m) terms for (q^a; q^m)_inf to order N; finite products multiply
in one binomial per factor and serve as the oracle for the sum.

Where the literature supplies two routes to the same object (a bilateral
sum and a triple-product form, or an Euler product as a theta series and
as a Pochhammer sum) both are implemented so they can cross-check each
other.
"""

import itertools
import operator

from . import _backend
from ._record import Record
from .errors import InvalidTheta
from .series import Series


def _divide_binomial(c, sign, e):
    """In place: divide list ``c`` by (1 - sign*q^e), truncated to its length."""
    if sign < 0:
        # 1/(1 + q^e) = (1 - q^e) / (1 - q^(2e))
        c[e:] = [x - y for x, y in zip(c[e:], c)]
        e *= 2
    for r in range(min(e, len(c))):
        c[r::e] = itertools.accumulate(c[r::e])


def pochhammer_inf(a, m, order):
    """(q^a; q^m)_inf = prod_{k>=0} (1 - q^(a + k*m)), truncated to ``order``."""
    if a < 1 or m < 1:
        raise ValueError("pochhammer_inf needs a >= 1 and m >= 1")
    return signed_pochhammer_inf(1, a, 1, m, order)


def pochhammer_fin(a, m, n, order):
    """(q^a; q^m)_n, the finite product of n binomials."""
    if n < 0:
        raise ValueError("pochhammer_fin needs n >= 0")
    if a < 1 or m < 1:
        raise ValueError("pochhammer_fin needs a >= 1 and m >= 1")
    c = [1] + [0] * (order - 1)
    for e in range(a, min(a + n * m, order), m):
        _backend.binomial_update(c, e, -1, order)
    return Series(c)


def signed_pochhammer_inf(sign, a, ratio_sign, m, order):
    """prod_{k>=0} (1 - sign * ratio_sign^k * q^(a + k*m)), truncated.

    Generalizes ``pochhammer_inf`` to arguments with negative signs, e.g.
    (-q^a; q^m)_inf is ``signed_pochhammer_inf(-1, a, +1, m, N)``.  The
    exponent ``a`` may be 0 (the factor degenerates to the constant
    1 - sign), but ``m`` must be positive so the product terminates.

    With x = sign*q^a and p = ratio_sign*q^m this is Euler's identity
    (x; p)_inf = sum_k (-1)^k p^(k(k-1)/2) x^k / (p; p)_k.  Term k is term
    k-1 times -p^(k-1)*x, divided by (1 - p^k); it starts at exponent
    a*k + m*k(k-1)/2, so about sqrt(2*order/m) terms reach below ``order``
    and the cost is O(order^1.5 / sqrt(m)) instead of the O(order^2 / m)
    of multiplying in one binomial per factor.
    """
    if m < 1:
        raise ValueError("ratio exponent m must be >= 1")
    if a < 0:
        raise ValueError("exponent a must be >= 0")
    term = [1] + [0] * (order - 1)  # term k's coefficients from its start exponent on
    c = list(term)
    start = 0
    k = 1
    while True:
        start += a + m * (k - 1)
        if start >= order:
            break
        step = -sign * ratio_sign ** (k - 1)
        term = [step * t for t in term[: order - start]]
        _divide_binomial(term, ratio_sign**k, m * k)
        c[start:] = map(operator.add, c[start:], term)
        k += 1
    return Series(c)


def euler_f(k, order):
    """f_k = (q^k; q^k)_inf, the theta series f(-q^k, -q^(2k)).

    By the triple product f(-q, -q^2) = (q; q)_inf, and its bilateral sum
    is Euler's pentagonal series sum_j (-1)^j q^(j(3j-1)/2).
    """
    if k < 1:
        raise ValueError("euler_f needs k >= 1")
    return theta_general(ThetaSpec(-1, k, -1, 2 * k), order)


class ThetaSpec(Record):
    """f(sign_a * q^r, sign_b * q^s) with monomial arguments only."""

    __slots__ = ()
    _fields = ("sign_a", "r", "sign_b", "s")

    def __new__(cls, sign_a, r, sign_b, s):
        if sign_a not in (1, -1) or sign_b not in (1, -1):
            raise ValueError("theta signs must be +1 or -1")
        if r < 0 or s < 0:
            raise ValueError("theta exponents must be >= 0")
        if r + s < 1:
            raise InvalidTheta("f(a, b) needs r + s >= 1")
        return Record.__new__(cls, sign_a, r, sign_b, s)

    def dilate(self, t):
        """The spec of f(a, b) at q -> q^t."""
        return ThetaSpec(self.sign_a, self.r * t, self.sign_b, self.s * t)

    def negate_q(self):
        """The spec of f(a, b) at q -> -q: a sign flips where its exponent is odd."""
        return ThetaSpec(self.sign_a * (-1) ** self.r, self.r,
                         self.sign_b * (-1) ** self.s, self.s)

    def canonical(self):
        """The same function with its arguments in a fixed order: f(a, b) = f(b, a)."""
        if (self.s, self.sign_b) < (self.r, self.sign_a):
            return ThetaSpec(self.sign_b, self.s, self.sign_a, self.r)
        return self


def theta_terms(spec, order):
    """The nonzero terms (exponent, coefficient) of f(a, b) below q^order,
    by increasing exponent: the bilateral sum sum_k a^(k(k+1)/2) * b^(k(k-1)/2).

    With a = sign_a q^r and b = sign_b q^s the k-th term has exponent
    r*k(k+1)/2 + s*k(k-1)/2 and sign sign_a^(k(k+1)/2) * sign_b^(k(k-1)/2).
    Both k directions terminate because r + s >= 1.  With r, s >= 1 only
    k = 0 reaches q^0, so the first term is (0, 1).
    """
    sa, r, sb, s = spec.sign_a, spec.r, spec.sign_b, spec.s
    c = {}
    for step in (1, -1):
        k = 0 if step == 1 else -1
        while True:
            ta = k * (k + 1) // 2
            tb = k * (k - 1) // 2
            e = r * ta + s * tb
            if e >= order:
                break
            sign = (sa if ta % 2 else 1) * (sb if tb % 2 else 1)
            c[e] = c.get(e, 0) + sign
            k += step
    return sorted((e, v) for e, v in c.items() if v)


def theta_general(spec, order):
    """f(a, b) truncated, from the bilateral sum of ``theta_terms``."""
    c = [0] * order
    for e, v in theta_terms(spec, order):
        c[e] = v
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
