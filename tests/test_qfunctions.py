"""q-object constructors: Pochhammer products, theta functions, and eta
quotients as DSL products."""

import pytest

from rrseries import dsl
from rrseries.errors import InvalidTheta, ParseError
from rrseries.qfunctions import (
    ThetaSpec,
    euler_f,
    pochhammer_fin,
    pochhammer_inf,
    signed_pochhammer_inf,
    theta_general,
    theta_product,
)
from rrseries.series import Series

# phi(q) = f(q, q) and psi(q) = f(q, q^3)
PHI = ThetaSpec(1, 1, 1, 1)
PSI = ThetaSpec(1, 1, 1, 3)


def theta_oracle(sign_a, r, sign_b, s, order):
    """Brute-force bilateral sum with a generous fixed k range."""
    c = [0] * order
    for k in range(-4 * order - 8, 4 * order + 8):
        e = r * (k * (k + 1) // 2) + s * (k * (k - 1) // 2)
        if 0 <= e < order:
            c[e] += (sign_a ** (k * (k + 1) // 2)) * (sign_b ** (k * (k - 1) // 2))
    return Series(c)


def binomial_oracle(sign, a, ratio_sign, m, order):
    """Test-local oracle: multiply in (1 - sign*ratio_sign^k q^(a+km)) one at a time."""
    c = [1] + [0] * (order - 1)
    coef = sign
    for e in range(a, order, m):
        if e == 0:
            c = [x - coef * x for x in c]
        else:
            for i in range(order - 1, e - 1, -1):
                c[i] -= coef * c[i - e]
        coef *= ratio_sign
    return Series(c)


class TestEulerSum:
    """The Euler-sum Pochhammer products against binomial-by-binomial products."""

    @pytest.mark.parametrize("order", [1, 2, 3, 40, 301])
    def test_inf_matches_fin(self, order):
        for a in range(1, 8):
            for m in range(1, 8):
                assert pochhammer_inf(a, m, order) == pochhammer_fin(a, m, order, order)

    def test_inf_at_catalog_order(self):
        for a, m in ((1, 5), (2, 5), (1, 1)):
            assert pochhammer_inf(a, m, 2000) == pochhammer_fin(a, m, 2000, 2000)

    @pytest.mark.parametrize("order", [1, 2, 5, 97])
    def test_signed_matches_binomial_oracle(self, order):
        for sign in (1, -1):
            for ratio_sign in (1, -1):
                for a in range(0, 8):
                    for m in range(1, 8):
                        got = signed_pochhammer_inf(sign, a, ratio_sign, m, order)
                        assert got == binomial_oracle(sign, a, ratio_sign, m, order), (
                            sign, a, ratio_sign, m)

    def test_zero_factor_vanishes(self):
        # a = 0 with sign +1 puts the factor (1 - 1) in the product
        assert not any(signed_pochhammer_inf(1, 0, 1, 3, 50))
        assert not any(signed_pochhammer_inf(1, 0, -1, 2, 50))
        assert signed_pochhammer_inf(-1, 0, 1, 3, 50)[0] == 2

    @pytest.mark.parametrize("sa,r,sb,s", [
        (1, 1, 1, 1), (1, 1, 1, 3), (-1, 1, -1, 2), (1, 3, 1, 15),
        (1, 0, 1, 1), (1, 2, -1, 3), (-1, 4, 1, 2), (1, 1, 1, 4),
    ])
    def test_triple_product_at_order_1000(self, sa, r, sb, s):
        spec = ThetaSpec(sa, r, sb, s)
        assert theta_general(spec, 1000) == theta_product(spec, 1000)


class TestPochhammer:
    def test_euler_product_prefix(self):
        assert pochhammer_inf(1, 1, 8).coeffs == (1, -1, -1, 0, 0, 1, 0, 1)

    def test_no_factor_below_truncation(self):
        assert pochhammer_inf(9, 4, 9) == Series.one(9)

    def test_fin_empty_product(self):
        assert pochhammer_fin(1, 1, 0, 6) == Series.one(6)

    def test_fin_two_factors(self):
        assert pochhammer_fin(1, 1, 2, 4).coeffs == (1, -1, -1, 1)

    def test_fin_matches_inf_when_factors_exceed_truncation(self):
        # remaining factors of the infinite product start at a + n*m >= N
        assert pochhammer_fin(2, 3, 4, 14) == pochhammer_inf(2, 3, 14)

    def test_fin_stops_at_truncation(self):
        # all but nine of the 10^12 factors lie beyond the truncation
        assert pochhammer_fin(1, 1, 10**12, 10) == pochhammer_inf(1, 1, 10)

    def test_euler_f_matches_generic_pochhammer(self):
        for k in (1, 2, 5, 25):
            assert euler_f(k, 200) == pochhammer_inf(k, k, 200)

    def test_rr_quotient_zeros(self):
        # (q,q^4;q^5)/(q^2,q^3;q^5) has vanishing coefficients at 3 and 8
        order = 12
        num = pochhammer_inf(1, 5, order) * pochhammer_inf(4, 5, order)
        den = pochhammer_inf(2, 5, order) * pochhammer_inf(3, 5, order)
        d = num * den.invert()
        assert d[3] == 0 and d[8] == 0

    def test_signed_pochhammer_chi(self):
        # (-q; q^2)_inf counts partitions into distinct odd parts
        s = signed_pochhammer_inf(-1, 1, 1, 2, 9)
        assert s.coeffs == (1, 1, 0, 1, 1, 1, 1, 1, 2)


class TestTheta:
    def test_invalid_spec(self):
        with pytest.raises(InvalidTheta):
            ThetaSpec(1, 0, 1, 0)

    def test_phi_prefix(self):
        assert theta_general(PHI, 11).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0)

    def test_psi_prefix(self):
        assert theta_general(PSI, 11).coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)

    @pytest.mark.parametrize("sa,r,sb,s", [
        (1, 1, 1, 1), (1, 1, 1, 3), (-1, 1, -1, 2), (1, 3, 1, 15),
        (1, 0, 1, 1), (-1, 0, 1, 1), (1, 2, -1, 3), (-1, 4, -1, 2),
    ])
    def test_sum_matches_oracle(self, sa, r, sb, s):
        spec = ThetaSpec(sa, r, sb, s)
        assert theta_general(spec, 80) == theta_oracle(sa, r, sb, s, 80)

    def test_triple_product_smoke(self):
        for sa, r, sb, s in [(1, 1, 1, 2), (-1, 1, -1, 2), (1, 0, 1, 2), (-1, 0, 1, 1)]:
            spec = ThetaSpec(sa, r, sb, s)
            assert theta_general(spec, 120) == theta_product(spec, 120)

    def test_degenerate_theta_vanishes(self):
        # f(-1, b) = 0: paired terms cancel, and the product has a zero factor
        spec = ThetaSpec(-1, 0, 1, 3)
        assert not any(theta_general(spec, 60))
        assert not any(theta_product(spec, 60))

    def test_named_specializations(self):
        order = 100
        f1, f2, f4 = (euler_f(k, order) for k in (1, 2, 4))
        assert theta_general(PHI, order) * f1 * f1 * f4 * f4 == f2**5
        assert theta_general(PSI, order) * f1 == f2 * f2
        assert signed_pochhammer_inf(-1, 1, 1, 2, order) * f1 * f4 == f2 * f2
        assert pochhammer_inf(1, 2, order) * f2 == f1

    def test_psi_three_dissection_residue_two_vanishes(self):
        assert not any(theta_general(PSI, 300).dissect(3, 2))


class TestEtaQuotient:
    """Eta quotients prod f_k^e, written in the DSL: the evaluator lowers each
    f_k to the theta base f(-q^k, -q^(2k)) and merges repeated bases."""

    def test_empty_spec(self):
        assert dsl.lower(dsl.parse("f3^0")) == dsl.Product(1, 0, (), ())
        assert dsl.evaluate(dsl.parse("f3^0"), 10) == Series.one(10)

    def test_duplicate_factors_merge(self):
        product = dsl.lower(dsl.parse("f2^3/f2*f1^0"))
        assert product.thetas == ((ThetaSpec(-1, 2, -1, 4), 2),)

    def test_quintic_quotient(self):
        order = 40
        expected = euler_f(1, order) ** 6 * (euler_f(5, order) ** 6).invert()
        assert dsl.evaluate(dsl.parse("f1^6/f5^6"), order) == expected

    def test_25_regular_generating_function(self):
        order = 30
        s = dsl.evaluate(dsl.parse("f25/f1"), order)
        # below q^25 this is the ordinary partition generating function
        dp = [1] + [0] * (order - 1)
        for part in range(1, 25):
            for total in range(part, order):
                dp[total] += dp[total - part]
        assert list(s.coeffs[:25]) == dp[:25]

    def test_invalid_k(self):
        with pytest.raises(ParseError):
            dsl.parse("f0")
