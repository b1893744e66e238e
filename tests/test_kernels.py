"""The schoolbook kernels against their definitions, at every size and sign."""

import random

from rrseries import _backend, _kernels_py


def random_coeffs(rng, size, bits=64):
    return [rng.randrange(-(1 << bits), 1 << bits) for _ in range(size)]


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
            assert _kernels_py.mul_trunc(a, b, size) == cauchy(a, b, size)

    def test_mul_asymmetric_lengths(self):
        rng = random.Random(11)
        a = random_coeffs(rng, 5)
        b = random_coeffs(rng, 40)
        assert _kernels_py.mul_trunc(a, b, 12) == cauchy(a, b, 12)
        assert _kernels_py.mul_trunc(b, a, 12) == cauchy(b, a, 12)

    def test_invert(self):
        rng = random.Random(13)
        for lead in (1, -1):
            a = [lead] + random_coeffs(rng, 63)
            got = _kernels_py.invert_trunc(a, 64)
            assert cauchy(a, got, 64) == [1] + [0] * 63

    def test_binomial_update(self):
        rng = random.Random(17)
        base = random_coeffs(rng, 50)
        for e, coef in ((0, 1), (1, -1), (7, 3), (49, -2), (60, 5)):
            got = list(base)
            _kernels_py.binomial_update(got, e, coef, 50)
            factor = [1] + [0] * 60
            factor[e] += coef
            assert got == cauchy(base, factor, 50)

    def test_huge_coefficients(self):
        rng = random.Random(19)
        a = random_coeffs(rng, 24, bits=600)
        b = random_coeffs(rng, 24, bits=600)
        assert _kernels_py.mul_trunc(a, b, 24) == cauchy(a, b, 24)


def test_active_backend_is_declared():
    assert _backend.mul_trunc is _kernels_py.mul_trunc
    assert _backend.invert_trunc is _kernels_py.invert_trunc
    assert _backend.binomial_update is _kernels_py.binomial_update
