"""The kernels against test-local schoolbook oracles, at every size and sign.

Newton inversion takes over at ``INV_CUTOFF``, so the inversion sizes
below sit on both sides of it; the product sizes run from one term to
150.
"""

import random

import pytest

from rrseries import _backend
from rrseries.dsl import evaluate, parse
from rrseries.qfunctions import ThetaSpec, theta_terms
from rrseries.series import Series


def random_coeffs(rng, size, bits=64):
    return [rng.randrange(-(1 << bits), 1 << bits) for _ in range(size)]


def mixed_coeffs(rng, size, bits):
    """Random signs, a run of zeros, and one coefficient of exactly ``bits`` bits."""
    out = random_coeffs(rng, size, bits)
    if size > 4:
        start, run = rng.randrange(size - 3), rng.randrange(1, 4)
        out[start:start + run] = [0] * run
    if size:
        out[rng.randrange(size)] = rng.choice((1, -1)) << (bits - 1)
    return out


def recurrence_inverse(a, n):
    """Test-local oracle: b[k] = -a[0] * sum_{i=1..k} a[i] b[k-i]."""
    b = [a[0]]
    for k in range(1, n):
        b.append(-a[0] * sum(a[i] * b[k - i] for i in range(1, min(k, len(a) - 1) + 1)))
    return b


def cauchy(a, b, n):
    """Test-local oracle: coefficient k of a*b is the sum of a[i]*b[k-i]."""
    return [
        sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
        for k in range(n)
    ]


class TestKernels:
    def test_mul(self):
        rng = random.Random(7)
        for size in (1, 2, 17, 64):
            a = random_coeffs(rng, size)
            b = random_coeffs(rng, size)
            assert _backend.mul_trunc(a, b, size) == cauchy(a, b, size)

    def test_mul_asymmetric_lengths(self):
        rng = random.Random(11)
        a = random_coeffs(rng, 5)
        b = random_coeffs(rng, 40)
        assert _backend.mul_trunc(a, b, 12) == cauchy(a, b, 12)
        assert _backend.mul_trunc(b, a, 12) == cauchy(b, a, 12)

    def test_invert(self):
        rng = random.Random(13)
        for lead in (1, -1):
            a = [lead] + random_coeffs(rng, 63)
            got = _backend.invert_trunc(a, 64)
            assert cauchy(a, got, 64) == [1] + [0] * 63

    def test_binomial_update(self):
        rng = random.Random(17)
        base = random_coeffs(rng, 50)
        for e, coef in ((0, 1), (0, -1), (0, 3), (1, -1), (7, 3), (49, -2), (50, 5), (60, 5)):
            got = list(base)
            _backend.binomial_update(got, e, coef, 50)
            factor = [1] + [0] * 60
            factor[e] += coef
            assert got == cauchy(base, factor, 50)

    def test_huge_coefficients(self):
        rng = random.Random(19)
        a = random_coeffs(rng, 24, bits=600)
        b = random_coeffs(rng, 24, bits=600)
        assert _backend.mul_trunc(a, b, 24) == cauchy(a, b, 24)


INV = _backend.INV_CUTOFF


class TestFastPaths:
    def test_mul_across_cutoff(self):
        rng = random.Random(23)
        sizes = (1, 2, 31, 32, 33, 67, 150)
        for la in sizes:
            for lb in sizes:
                bits = rng.choice((1, 2, 8, 64, 300, 1100))
                a = mixed_coeffs(rng, la, bits)
                b = mixed_coeffs(rng, lb, rng.choice((1, 8, 64, 1100)))
                # n shorter than both operands, between them, one past the
                # last product term, and beyond it
                for n in (1, min(la, lb), max(la, lb) + 1, la + lb, la + lb + 5):
                    assert _backend.mul_trunc(a, b, n) == cauchy(a, b, n), (la, lb, n)

    def test_mul_zero_operands(self):
        rng = random.Random(29)
        a = random_coeffs(rng, 64)
        zero = [0] * 64
        for n in (1, 32, 96):
            assert _backend.mul_trunc(a, zero, n) == [0] * n
            assert _backend.mul_trunc(zero, a, n) == [0] * n
            assert _backend.mul_trunc(zero, zero, n) == [0] * n

    def test_mul_empty_operand(self):
        for n in (0, 1, 5):
            assert _backend.mul_trunc([], [3, 1], n) == [0] * n
            assert _backend.mul_trunc([3, 1], [], n) == [0] * n
            assert _backend.mul_trunc([], [], n) == [0] * n

    def test_mul_one_term(self):
        rng = random.Random(31)
        a = random_coeffs(rng, 96, bits=900)
        b = random_coeffs(rng, 96, bits=900)
        assert _backend.mul_trunc(a, b, 1) == [a[0] * b[0]]

    def test_square(self):
        # equal operands share one packed integer
        rng = random.Random(37)
        for bits in (1, 64, 1100):
            a = mixed_coeffs(rng, 96, bits)
            n = 96
            assert _backend.mul_trunc(a, a, n) == cauchy(a, a, n)
            assert _backend.mul_trunc(a, list(a), n) == cauchy(a, a, n)

    def test_mul_extreme_coefficients(self):
        # 63 = 2^6 - 1 terms of |c| = 2^bits - 1, all one sign: the product
        # coefficients need all of 2*bits + 6 bits plus the sign bit, and
        # 2*bits + 6 is a whole number of bytes, so the slot has no slack
        length = 63
        for bits in (5, 61, 1021):
            top = (1 << bits) - 1
            for a in ([top] * length, [top * (-1) ** i for i in range(length)]):
                for b in ([top] * length, [-top] * length):
                    n = 2 * length + 1
                    assert _backend.mul_trunc(a, b, n) == cauchy(a, b, n), bits

    def test_invert_across_cutoff(self):
        rng = random.Random(41)
        for n in (1, 2, INV - 1, INV, INV + 1, 2 * INV + 1, 4 * INV + 3):
            for length in (1, n // 2 + 1, n, n + 7):
                for bits in (1, 2, 8):
                    a = [rng.choice((1, -1))] + mixed_coeffs(rng, length - 1, bits)
                    assert _backend.invert_trunc(a, n) == recurrence_inverse(a, n)

    def test_invert_huge_coefficients(self):
        rng = random.Random(43)
        for bits in (64, 1100):
            a = [-1] + mixed_coeffs(rng, INV + 16, bits)
            n = INV + 17
            assert _backend.invert_trunc(a, n) == recurrence_inverse(a, n)


class TestInvertPaths:
    def test_steep_growth_takes_the_recurrence(self, monkeypatch):
        # a dense inverse growing by about 10 bits per term
        rng = random.Random(47)
        n = 300
        a = [-1] + [rng.randrange(-999, 1000) for _ in range(n - 1)]
        assert _backend._grows_steeply(recurrence_inverse(a, 38))
        products = []
        mul = _backend._mul
        monkeypatch.setattr(_backend, "_mul",
                            lambda *args: products.append(1) or mul(*args))
        chosen = _backend.invert_trunc(a, n)
        assert products == []
        monkeypatch.setattr(_backend, "STEEP_BITS", 10**9)
        newton = _backend.invert_trunc(a, n)
        assert products
        assert chosen == newton == recurrence_inverse(a, n)

    def test_slow_growth_keeps_newton(self):
        # coefficients in {-1, 0, 1}: every root has |q| > 1/2, so the inverse
        # grows by under one bit per term
        rng = random.Random(53)
        a = [1] + [rng.choice((-1, 0, 1)) for _ in range(499)]
        assert not _backend._grows_steeply(recurrence_inverse(a, 63))

    @pytest.mark.parametrize("text, n", [
        ("1 - 1000*q", 300), ("1 - 3*q - 5*q^2", 300), ("1 + q^3 - 2*q^7 + q^50", 3000),
        # 45 nonzero terms below q^2000, and an inverse that grows slowly
        ("dissect(f1^3,2,0)", 2000),
    ])
    def test_sparse_denominator_takes_the_recurrence(self, monkeypatch, text, n):
        # fewer than INV_CUTOFF nonzero terms: the recurrence runs to the
        # end, whatever the growth of the inverse
        a = list(evaluate(parse(text), n).coeffs)
        assert sum(1 for c in a if c) < INV
        products = []
        mul = _backend._mul
        monkeypatch.setattr(_backend, "_mul",
                            lambda *args: products.append(1) or mul(*args))
        got = _backend.invert_trunc(a, n)
        assert products == []
        last = max(i for i, c in enumerate(a) if c)
        assert got == recurrence_inverse(a[:last + 1], n)

    @pytest.mark.parametrize("text, n, recurrence", [
        # 71 nonzero terms below q^2000, 3.5% of the coefficients
        ("f1 + q", 2000, True),
        ("dilate(f1*f5,2) + q", 1000, True),  # 13%
        ("f1*f2 + q", 1000, False),  # 38%: Newton, as every workload inversion
    ])
    def test_thin_denominator_takes_the_recurrence(self, monkeypatch, text, n, recurrence):
        # INV_CUTOFF or more nonzero terms, but fewer than INV_DENSITY * n:
        # the recurrence runs to the end
        a = list(evaluate(parse(text), n).coeffs)
        terms = [(i, c) for i, c in enumerate(a) if c and i]
        assert len(terms) >= INV
        assert (len(terms) < _backend.INV_DENSITY * n) == recurrence
        products = []
        mul = _backend._mul
        monkeypatch.setattr(_backend, "_mul",
                            lambda *args: products.append(1) or mul(*args))
        got = _backend.invert_trunc(a, n)
        assert (products == []) == recurrence
        assert got == _backend.sparse_div([1], terms, n)


BLOCK = _backend.SPARSE_BLOCK
SPARSE_ORDERS = (1, 2, 63, 64, 65, BLOCK - 1, BLOCK, BLOCK + 1, 300)

# Sparse bases: theta functions, some dilated, one with coefficients 2
# (phi = f(q,q)) and one whose paired terms cancel (f(q,-q)), and a sparse
# series with wide coefficients and terms on both sides of a block edge.
SPARSE_BASES = {
    "f(-q,-q^4)": ThetaSpec(-1, 1, -1, 4),
    "f(-q^2,-q^3) at q^3": ThetaSpec(-1, 2, -1, 3).dilate(3),
    "f_1 at -q": ThetaSpec(-1, 1, -1, 2).negate_q(),
    "phi": ThetaSpec(1, 1, 1, 1),
    "f(q,-q)": ThetaSpec(1, 1, -1, 1),
    "f_5 at q^7": ThetaSpec(-1, 5, -1, 10).dilate(7),
}


def sparse_base(name, n):
    """(terms, dense coefficients) of the base ``name`` below q^n."""
    if name == "wide":
        rng = random.Random(61)
        terms = [(j, rng.choice((1, -1)) * rng.randrange(1, 1 << 20))
                 for j in (1, 3, BLOCK - 1, BLOCK, BLOCK + 2, 2 * BLOCK + 5) if j < n]
    else:
        terms = theta_terms(SPARSE_BASES[name], n)
        assert terms[0] == (0, 1)
        terms = terms[1:]
    dense = [1] + [0] * (n - 1)
    for j, c in terms:
        dense[j] = c
    return terms, dense


@pytest.mark.parametrize("name", [*SPARSE_BASES, "wide"])
class TestSparseKernels:
    """Miller's power, the sparse product and the sparse quotient against the
    dense oracles: repeated ``Series`` products, ``cauchy`` and
    ``recurrence_inverse``, on both sides of each block edge."""

    def test_power(self, name):
        for n in SPARSE_ORDERS:
            terms, dense = sparse_base(name, n)
            inverse = Series(recurrence_inverse(dense, n))
            for alpha in range(-7, 8):
                if name == "wide" and n > 65 and abs(alpha) > 2:
                    continue  # the oracle's products of wide series take seconds
                expected = Series.one(n)
                for _ in range(abs(alpha)):
                    expected *= inverse if alpha < 0 else Series(dense)
                expected = list(expected.coeffs)
                assert _backend.sparse_power(terms, alpha, n) == expected, (n, alpha)

    def test_mul_and_div(self, name):
        rng = random.Random(67)
        for n in SPARSE_ORDERS:
            terms, dense = sparse_base(name, n)
            inverse = recurrence_inverse(dense, n)
            for length in (1, n // 2 + 1, n, n + 3):
                a = mixed_coeffs(rng, length, rng.choice((1, 8, 200)))
                product = cauchy(a, dense, n)
                quotient = cauchy(a, inverse, n)
                assert _backend.sparse_mul(a, terms, n) == product, (n, length)
                assert _backend.sparse_div(a, terms, n) == quotient, (n, length)
                assert _backend.sparse_div(product, terms, n) == a[:n] + [0] * (n - length)
