"""Exact truncated power series in q with integer coefficients.

A :class:`Series` holds the coefficients of q^0 .. q^(order-1) as Python
ints, so every operation is exact at any coefficient size.  Values are
immutable after construction and all operations are pure, which makes
them safe to share across threads.

Truncation contract: binary operations return the minimum of the operand
orders; ``dissect`` and ``dilate`` adjust the order by the exact index
formulas so a result never claims coefficients it cannot certify.
"""

from . import _backend
from .errors import InvalidModulus, NonUnitConstantTerm, ResidueOutOfRange


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
    def zero(cls, order):
        return cls([0] * order)

    @classmethod
    def one(cls, order):
        return cls([1] + [0] * (order - 1))

    @classmethod
    def constant(cls, value, order):
        return cls([value] + [0] * (order - 1))

    @classmethod
    def monomial(cls, coefficient, exponent, order):
        """coefficient * q^exponent, truncated to ``order``."""
        c = [0] * order
        if exponent < order:
            c[exponent] = coefficient
        return cls(c)

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

    def is_zero(self):
        return not any(self.coeffs)

    def truncate(self, order):
        """Prefix of length ``order`` (a no-op when already shorter or equal)."""
        if order >= self.order:
            return self
        if order < 1:
            raise ValueError("order must be >= 1")
        return Series(self.coeffs[:order])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return Series([a[i] + b[i] for i in range(n)])

    def __sub__(self, other):
        n = min(self.order, other.order)
        a, b = self.coeffs, other.coeffs
        return Series([a[i] - b[i] for i in range(n)])

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def scalar_mul(self, k):
        return Series([k * c for c in self.coeffs])

    def __rmul__(self, k):
        if isinstance(k, int):
            return self.scalar_mul(k)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scalar_mul(other)
        n = min(self.order, other.order)
        return Series(_backend.mul_trunc(list(self.coeffs), list(other.coeffs), n))

    def invert(self):
        """Multiplicative inverse; the constant term must be +1 or -1."""
        if self.coeffs[0] not in (1, -1):
            raise NonUnitConstantTerm(
                f"constant term {self.coeffs[0]} is not a unit in Z[[q]]"
            )
        return Series(_backend.invert_trunc(list(self.coeffs), self.order))

    def __pow__(self, k):
        """Integer power by repeated squaring; negative k inverts first."""
        if not isinstance(k, int):
            raise TypeError("series exponent must be an int")
        if k < 0:
            return self.invert() ** (-k)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            base = base * base if k > 1 else base
            k >>= 1
        return Series.one(self.order) if result is None else result

    def __truediv__(self, other):
        if isinstance(other, Series):
            return self * other.invert()
        return NotImplemented

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

    def shift(self, j):
        """Multiply by q^j; order grows by j so no information is lost."""
        if j < 0:
            raise ValueError("shift must be >= 0")
        return Series((0,) * j + self.coeffs)

    # -- reduction -----------------------------------------------------------

    def reduce_mod(self, m):
        return ModSeries([c % m for c in self.coeffs], m)


class ModSeries:
    """Truncated series with coefficients reduced into [0, m)."""

    __slots__ = ("coeffs", "modulus")

    def __init__(self, coeffs, modulus):
        if modulus < 2:
            raise InvalidModulus(f"modulus {modulus} must be >= 2")
        coeffs = tuple(c % modulus for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("ModSeries is immutable")

    @property
    def order(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, ModSeries):
            return NotImplemented
        return self.modulus == other.modulus and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.modulus))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 8 else ""
        return f"ModSeries([{head}{tail}], mod {self.modulus}, order={self.order})"

    def is_zero(self):
        return not any(self.coeffs)

    def truncate(self, order):
        if order >= self.order:
            return self
        return ModSeries(self.coeffs[:order], self.modulus)

    def _check_compatible(self, other):
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")

    def __add__(self, other):
        self._check_compatible(other)
        n = min(self.order, other.order)
        m = self.modulus
        return ModSeries(
            [(self.coeffs[i] + other.coeffs[i]) % m for i in range(n)], m
        )

    def __sub__(self, other):
        self._check_compatible(other)
        n = min(self.order, other.order)
        m = self.modulus
        return ModSeries(
            [(self.coeffs[i] - other.coeffs[i]) % m for i in range(n)], m
        )

    def __mul__(self, other):
        self._check_compatible(other)
        n = min(self.order, other.order)
        raw = _backend.mul_trunc(list(self.coeffs), list(other.coeffs), n)
        return ModSeries(raw, self.modulus)

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers are not defined for ModSeries")
        result = ModSeries([1] + [0] * (self.order - 1), self.modulus)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def dissect(self, t, j):
        if not 0 <= j < t:
            raise ResidueOutOfRange(f"residue {j} not in [0, {t})")
        if j >= self.order:
            raise ValueError(
                f"order {self.order} series has no coefficient at exponent {j}"
            )
        return ModSeries(self.coeffs[j::t], self.modulus)


def reduce_mod(s, m):
    """Coefficientwise reduction of a :class:`Series` into [0, m)."""
    if m < 2:
        raise InvalidModulus(f"modulus {m} must be >= 2")
    return s.reduce_mod(m)
