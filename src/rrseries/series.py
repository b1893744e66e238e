"""Exact truncated power series in q with integer coefficients.

A :class:`Series` holds the coefficients of q^0 .. q^(order-1) as Python
ints, so every operation is exact at any coefficient size.  Values are
immutable after construction and all operations are pure, which makes
them safe to share across threads.

Truncation contract: binary operations return the minimum of the operand
orders; ``dissect`` and ``dilate`` adjust the order by the exact index
formulas so a result never claims coefficients it cannot certify.

A congruence mod m is checked on an exact series reduced at the end:
:meth:`Series.reduce_mod` gives its coefficients in [0, m).
"""

from . import _backend
from .errors import InvalidModulus, NonUnitConstantTerm, ResidueOutOfRange


def _power(base, k):
    """``base**k`` for an int ``k >= 1`` by repeated squaring, with no product by one."""
    result = None
    while k:
        if k & 1:
            result = base if result is None else result * base
        base = base * base if k > 1 else base
        k >>= 1
    return result


def require_unit(constant):
    """Raise NonUnitConstantTerm unless ``constant`` is +1 or -1."""
    if constant not in (1, -1):
        raise NonUnitConstantTerm(f"constant term {constant} is not a unit in Z[[q]]")


def require_modulus(m):
    """Raise InvalidModulus unless ``m`` is an int >= 2."""
    if not isinstance(m, int) or m < 2:
        raise InvalidModulus(f"modulus {m!r} must be an int >= 2")


class Series:
    """Truncated formal power series sum a[n] q^n for 0 <= n < order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, order):
        return cls([1] + [0] * (order - 1))

    # -- basics ------------------------------------------------------------

    @property
    def order(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"Series([{head}{tail}], order={self.order})"

    def truncate(self, order):
        """Prefix of length ``order`` (a no-op when already shorter or equal)."""
        if order >= self.order:
            return self
        if order < 1:
            raise ValueError("order must be >= 1")
        return Series(self.coeffs[:order])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return Series([a[i] + b[i] for i in range(n)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return Series([a[i] - b[i] for i in range(n)])

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return Series([other * c for c in self.coeffs])
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(_backend.mul_trunc(list(self.coeffs), list(other.coeffs), n))

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse; the constant term must be +1 or -1."""
        require_unit(self.coeffs[0])
        return Series(_backend.invert_trunc(list(self.coeffs), self.order))

    def __pow__(self, k):
        """Integer power.  A unit series with few nonzero terms (the rule of
        ``_backend.unit_terms``) raised to |k| >= 2 takes Miller's
        recurrence; any other power takes repeated squaring, after an
        inversion when k < 0."""
        if not isinstance(k, int):
            raise TypeError("series exponent must be an int")
        a0, n = self.coeffs[0], self.order
        if abs(k) >= 2 and a0 in (1, -1):
            terms, sparse = _backend.unit_terms(self.coeffs, n)
            if sparse:
                power = _backend.sparse_power(terms, k, n)
                # a = a0 * (1 + sum over terms), and a0^k = a0 for odd k
                return Series([-c for c in power] if a0 == -1 and k & 1 else power)
        if not k:
            return Series.one(n)
        return _power(self.invert() if k < 0 else self, abs(k))

    def __truediv__(self, other):
        return self * other.invert() if isinstance(other, Series) else NotImplemented

    # -- substitution and dissection ----------------------------------------

    def dilate(self, t):
        """Substitute q -> q^t; result order is (order-1)*t + 1."""
        if t < 1:
            raise ValueError("dilation factor must be >= 1")
        if t == 1:
            return self
        out = [0] * ((self.order - 1) * t + 1)
        for i, c in enumerate(self.coeffs):
            out[i * t] = c
        return Series(out)

    def dissect(self, t, j):
        """Coefficients along the progression t*n + j: result[n] = self[t*n + j]."""
        if t < 1:
            raise ValueError("dissection period must be >= 1")
        if not 0 <= j < t:
            raise ResidueOutOfRange(f"residue {j} not in [0, {t})")
        if j >= self.order:
            raise ValueError(
                f"order {self.order} series has no coefficient at exponent {j}"
            )
        return Series(self.coeffs[j::t])

    def negate_q(self):
        """Substitute q -> -q."""
        return Series([c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs)])

    # -- reduction -----------------------------------------------------------

    def reduce_mod(self, m):
        """Coefficientwise reduction into [0, m), for an int ``m >= 2``."""
        require_modulus(m)
        return Series([c % m for c in self.coeffs])
