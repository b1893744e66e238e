"""Series core: ring operations, truncation contract, dissection algebra."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrseries import _backend, dsl
from rrseries.dsl import evaluate, parse
from rrseries.errors import InvalidModulus, NonUnitConstantTerm, ResidueOutOfRange
from rrseries.series import Series


def pentagonal_oracle(order):
    """Euler's pentagonal expansion of (q;q)_inf, written independently."""
    c = [0] * order
    k = 0
    while k * (3 * k - 1) // 2 < order:
        sign = (-1) ** k
        e1 = k * (3 * k - 1) // 2
        e2 = k * (3 * k + 1) // 2
        c[e1] += sign
        if k and e2 < order:
            c[e2] += sign
        k += 1
    return c


def shifted(s, j):
    """``s`` times q^j, to order ``s.order + j``."""
    return Series((0,) * j + s.coeffs)


def partition_oracle(order):
    """Unrestricted partition numbers by the classic coin-style DP."""
    dp = [1] + [0] * (order - 1)
    for part in range(1, order):
        for total in range(part, order):
            dp[total] += dp[total - part]
    return dp


def geometric(order):
    return Series([1] * order)


small_series = st.builds(
    Series,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=32),
)
unit_series = st.builds(
    lambda head, tail: Series([head] + tail),
    st.sampled_from([1, -1]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=31),
)


class TestBasics:
    def test_add_cancellation(self):
        one_minus_q = Series([1, -1, 0, 0])
        q = Series([0, 1, 0, 0])
        assert one_minus_q + q == Series.one(4)

    def test_sub_self_is_zero(self):
        s = Series([3, -2, 7, 1, 4])
        assert s - s == Series([0] * 5)

    def test_scalar_mul(self):
        q = Series([0, 1, 0, 0])
        assert 11 * q == Series([0, 11, 0, 0])

    @pytest.mark.parametrize("other", [2.5, "x"])
    def test_mul_by_non_int_scalar_is_type_error(self, other):
        s = Series([1, 2, 3])
        with pytest.raises(TypeError):
            s * other
        with pytest.raises(TypeError):
            other * s

    @pytest.mark.parametrize("other", [1, 2.5, "x"])
    def test_add_and_sub_of_a_non_series_are_type_errors(self, other):
        s = Series([1, 2, 3])
        for combine in (lambda: s + other, lambda: s - other,
                        lambda: other + s, lambda: other - s):
            with pytest.raises(TypeError):
                combine()

    def test_min_order_contract(self):
        a = Series([1, 2, 3, 4, 5])
        b = Series([1, 1, 1])
        assert (a + b).order == 3
        assert (a - b).order == 3
        assert (a * b).order == 3

    def test_mul_telescoping(self):
        assert Series([1, -1] + [0] * 18) * geometric(20) == Series.one(20)

    def test_pentagonal_product(self):
        prod = Series.one(8)
        for e in range(1, 8):
            prod = prod * Series([1] + [0] * (e - 1) + [-1] + [0] * (7 - e))
        assert prod.coeffs == (1, -1, -1, 0, 0, 1, 0, 1)
        assert list(prod.coeffs) == pentagonal_oracle(8)

    def test_immutable(self):
        s = Series([1, 2])
        with pytest.raises(AttributeError):
            s.coeffs = (3, 4)


class TestInvert:
    def test_geometric(self):
        assert Series([1, -1, 0, 0, 0]).invert() == geometric(5)

    def test_partition_generating_function(self):
        order = 64
        f1 = Series(pentagonal_oracle(order))
        assert list(f1.invert().coeffs) == partition_oracle(order)
        assert f1.invert().coeffs[:10] == (1, 1, 2, 3, 5, 7, 11, 15, 22, 30)

    def test_non_unit_constant_rejected(self):
        with pytest.raises(NonUnitConstantTerm):
            Series([2, 1, 0]).invert()

    def test_negative_unit(self):
        s = Series([-1, 3, -2, 5])
        assert (s * s.invert()) == Series.one(4)

    @given(unit_series)
    @settings(max_examples=60)
    def test_round_trip(self, s):
        assert s * s.invert() == Series.one(s.order)


class TestPow:
    def test_zeroth_power(self):
        assert Series([5, 1, 2]) ** 0 == Series.one(3)

    def test_square(self):
        assert Series([1, 1, 0]) ** 2 == Series([1, 2, 1])

    def test_negative_exponent(self):
        s = Series([1, -1, 0, 0, 0, 0])
        assert s ** -2 == (s.invert()) ** 2

    @given(small_series, st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=40)
    def test_additivity(self, s, m, n):
        assert s ** (m + n) == (s**m) * (s**n)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_sparse_unit_base_takes_millers_recurrence(self, count_kernel_calls, sign):
        base = Series([sign, 0, -3, 0, 0, 5] + [0] * 20 + [2, 0, 0, -1] + [0] * 170)
        inverse = base.invert()
        calls = count_kernel_calls()
        for k in range(-7, 8):
            expected = Series.one(base.order)
            for _ in range(abs(k)):
                expected = expected * (inverse if k < 0 else base)
            calls.clear()
            assert base ** k == expected, k
            # k = -1 is one inversion, k = 1 the base and k = 0 one
            assert (calls == ["sparse_power"]) == (abs(k) >= 2), (k, calls)

    def test_other_bases_take_repeated_squaring(self, count_kernel_calls):
        rng = random.Random(3)
        # 99 nonzero terms after the constant: more than INV_CUTOFF and than
        # INV_DENSITY * 100
        dense = Series([1] + [rng.choice((-2, -1, 1, 2)) for _ in range(99)])
        calls = count_kernel_calls()
        assert Series([2, 1, 0, 0, 0, 0]) ** 3 == Series([8, 12, 6, 1, 0, 0])
        assert calls == ["mul_trunc"] * 2
        # k = 2 is one squaring, |k| = 3 a squaring and one product
        for k, products in ((2, 1), (3, 2), (-3, 2)):
            expected = Series.one(100)
            for _ in range(abs(k)):
                expected = expected * (dense.invert() if k < 0 else dense)
            calls.clear()
            assert dense ** k == expected
            assert "sparse_power" not in calls
            assert calls.count("mul_trunc") == products

    def test_binomial_power_is_one_recurrence(self, count_kernel_calls):
        dsl.clear_cache()
        calls = count_kernel_calls()
        value = evaluate(parse("(1+q)^1000000"), 1000)
        assert calls.count("sparse_power") == 1 and "mul_trunc" not in calls
        assert list(value.coeffs[:50]) == [math.comb(10**6, i) for i in range(50)]
        dsl.clear_cache()


class TestRingLaws:
    @given(small_series, small_series)
    @settings(max_examples=60)
    def test_mul_commutative(self, a, b):
        assert a * b == b * a

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(small_series, small_series, small_series)
    @settings(max_examples=60)
    def test_distributive(self, a, b, c):
        n = min(a.order, b.order, c.order)
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert lhs.truncate(n) == rhs.truncate(n)


class TestDilateDissect:
    def test_dilate_simple(self):
        assert Series([1, 1]).dilate(5) == Series([1, 0, 0, 0, 0, 1])

    def test_dilate_order_formula(self):
        s = Series([1, 2, 3])
        assert s.dilate(4).order == (s.order - 1) * 4 + 1

    def test_dissect_odd_indices(self):
        s = Series(range(10))
        assert s.dissect(2, 1) == Series([1, 3, 5, 7, 9])

    def test_dissect_order_formula(self):
        s = Series(range(8))
        for t in (2, 3, 5):
            for j in range(t):
                assert s.dissect(t, j).order == (s.order - 1 - j) // t + 1

    def test_dissect_residue_out_of_range(self):
        with pytest.raises(ResidueOutOfRange):
            Series([1, 2, 3]).dissect(2, 2)

    def test_dilate_of_dissect_agrees_on_residue_class(self):
        s = Series([3, 1, 4, 1, 5, 9, 2, 6])
        t = 3
        back = s.dissect(t, 0).dilate(t)
        for n in range(back.order):
            if n % t == 0:
                assert back[n] == s[n]

    @given(small_series, st.sampled_from([2, 3, 5]))
    @settings(max_examples=60)
    def test_reassembly(self, s, t):
        if s.order <= t:
            return
        total = None
        for j in range(t):
            piece = shifted(s.dissect(t, j).dilate(t), j)
            total = piece if total is None else total + piece
        n = total.order
        assert total == s.truncate(n)

    def test_negate_q_involution(self):
        s = Series([3, 1, 4, 1, 5, 9])
        assert s.negate_q().negate_q() == s

    def test_negate_q_simple(self):
        assert Series([1, 1]).negate_q() == Series([1, -1])


class TestModSeries:
    """Reduction of an exact series mod m into [0, m)."""

    def test_reduce_simple(self):
        assert Series([0, 3, 0]).reduce_mod(3) == Series([0, 0, 0])

    def test_invalid_modulus(self):
        for m in (1, 0, -4, 2.5):
            with pytest.raises(InvalidModulus):
                Series([1]).reduce_mod(m)

    def test_negative_coefficients_normalize(self):
        assert Series([-1, -4]).reduce_mod(3).coeffs == (2, 2)

    @given(small_series, small_series, st.integers(2, 12))
    @settings(max_examples=60)
    def test_reduction_is_ring_homomorphism(self, a, b, m):
        ra, rb = a.reduce_mod(m), b.reduce_mod(m)
        assert all(0 <= c < m for c in ra.coeffs)
        assert (a * b).reduce_mod(m) == (ra * rb).reduce_mod(m)
        assert (a + b).reduce_mod(m) == (ra + rb).reduce_mod(m)
        assert (a - b).reduce_mod(m) == (ra - rb).reduce_mod(m)

    def test_power_makes_no_unit_product(self, monkeypatch):
        calls = []
        mul = _backend.mul_trunc
        monkeypatch.setattr(_backend, "mul_trunc", lambda *args: calls.append(1) or mul(*args))
        s = Series([3, 1, 4, 1, 5])
        assert s ** 1 == s
        assert calls == []
        assert s ** 0 == Series.one(5)
        assert calls == []
        # k = 5: squarings base^2, base^4, then one product base * base^4
        expected = [1, 0, 0, 0, 0]
        for _ in range(5):
            expected = [sum(expected[i] * s[n - i] for i in range(n + 1)) for n in range(5)]
        assert s ** 5 == Series(expected)
        assert len(calls) == 3

    def test_power_tower_congruence(self):
        # f_k^(2^l) = f_(2k)^(2^(l-1)) mod 2^l, here (k, l) = (1, 3)
        from rrseries.qfunctions import euler_f

        order = 120
        lhs = euler_f(1, order) ** 8
        rhs = euler_f(2, order) ** 4
        assert not any((lhs - rhs).reduce_mod(8))
