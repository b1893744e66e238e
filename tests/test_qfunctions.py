"""q-object constructors: Pochhammer products, theta functions, eta quotients."""

import pytest

from rrseries.errors import InvalidTheta
from rrseries.qfunctions import (
    EtaQuotientSpec,
    ThetaSpec,
    chi,
    chi_neg,
    eta_quotient,
    euler_f,
    phi,
    pochhammer_fin,
    pochhammer_inf,
    psi,
    signed_pochhammer_inf,
    theta_general,
    theta_product,
)
from rrseries.series import Series


def theta_oracle(sign_a, r, sign_b, s, order):
    """Brute-force bilateral sum with a generous fixed k range."""
    c = [0] * order
    for k in range(-4 * order - 8, 4 * order + 8):
        e = r * (k * (k + 1) // 2) + s * (k * (k - 1) // 2)
        if 0 <= e < order:
            c[e] += (sign_a ** (k * (k + 1) // 2)) * (sign_b ** (k * (k - 1) // 2))
    return Series(c)


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
        assert phi(11).coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0)

    def test_psi_prefix(self):
        assert psi(11).coeffs == (1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1)

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
        assert theta_general(spec, 60).is_zero()
        assert theta_product(spec, 60).is_zero()

    def test_named_specializations(self):
        order = 100
        f1, f2, f4 = (euler_f(k, order) for k in (1, 2, 4))
        assert phi(order) * f1 * f1 * f4 * f4 == f2**5
        assert psi(order) * f1 == f2 * f2
        assert chi(order) * f1 * f4 == f2 * f2
        assert chi_neg(order) * f2 == f1

    def test_psi_three_dissection_residue_two_vanishes(self):
        assert psi(300).dissect(3, 2).is_zero()


class TestEtaQuotient:
    def test_empty_spec(self):
        assert eta_quotient(EtaQuotientSpec(()), 10) == Series.one(10)

    def test_duplicate_factors_merge(self):
        spec = EtaQuotientSpec([(2, 3), (2, -1), (1, 0)])
        assert spec.factors == ((2, 2),)

    def test_quintic_quotient(self):
        order = 40
        spec = EtaQuotientSpec([(1, 6), (5, -6)])
        expected = euler_f(1, order) ** 6 * (euler_f(5, order) ** 6).invert()
        assert eta_quotient(spec, order) == expected

    def test_25_regular_generating_function(self):
        order = 30
        s = eta_quotient(EtaQuotientSpec([(25, 1), (1, -1)]), order)
        # below q^25 this is the ordinary partition generating function
        dp = [1] + [0] * (order - 1)
        for part in range(1, 25):
            for total in range(part, order):
                dp[total] += dp[total - part]
        assert list(s.coeffs[:25]) == dp[:25]

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            EtaQuotientSpec([(0, 1)])
