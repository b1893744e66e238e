"""Catalog of named series and the relations tying them together."""

import sys
import threading
from collections import Counter

import pytest

from rrseries import catalog, dsl, partitions, qfunctions
from rrseries.catalog import f_mrs, linking_relations, named_series
from rrseries.errors import SpecOutOfRange
from rrseries.qfunctions import euler_f


def dict_mul(a, b, order):
    """Test-local polynomial product on {exponent: coefficient} dicts."""
    out = {}
    for i, ai in a.items():
        for j, bj in b.items():
            if i + j < order:
                out[i + j] = out.get(i + j, 0) + ai * bj
    return {e: c for e, c in out.items() if c}


def a_series_oracle(order):
    """1/R^5 = (q^2,q^3;q^5)^5 * [coefficients of 1/(q,q^4;q^5)^5].

    The inverse factor is the 5-colored partition count with parts
    +-1 (mod 5) (an independent DP), the rest a direct finite product.
    """
    numerator = {0: 1}
    for e in range(order):
        if e % 5 in (2, 3):
            for _ in range(5):
                numerator = dict_mul(numerator, {0: 1, e: -1}, order)
    alpha = partitions.counts(partitions.PM1_MOD5, order - 1, tuple_length=5)
    result = dict_mul(numerator, dict(enumerate(alpha)), order)
    return [result.get(n, 0) for n in range(order)]


class TestNamedSeries:
    def test_r_constant_term(self):
        assert named_series("R", 5)[0] == 1

    def test_c_and_d_unit_constants(self):
        assert named_series("C", 5)[0] == 1
        assert named_series("D", 5)[0] == 1

    def test_d_spot_values(self):
        d = named_series("D", 14)
        assert (d[3], d[8], d[13]) == (5, 25, 155)

    def test_c_series_zeros(self):
        c = named_series("c", 12)
        assert c[2] == 0 and c[4] == 0 and c[9] == 0

    def test_d_series_zeros(self):
        d = named_series("d", 24)
        assert d[3] == 0 and d[8] == 0 and d[13] == 0 and d[23] == 0

    def test_a_matches_independent_oracle(self):
        order = 48
        assert list(named_series("A", order).coeffs) == a_series_oracle(order)

    def test_a_prefix(self):
        assert named_series("A", 6).coeffs == (1, 5, 10, 5, -15, -24)

    def test_a_is_inverse_fifth_power_of_r(self):
        order = 40
        assert named_series("A", order) == named_series("R", order) ** -5

    def test_b25_is_25_regular(self):
        order = 200
        b25 = named_series("b25", order)
        counted = partitions.counts(partitions.B25, order - 1)
        assert list(b25.coeffs) == counted

    def test_unknown_tag(self):
        with pytest.raises(SpecOutOfRange):
            named_series("X", 10)

    def test_every_tag_builds(self):
        for tag in catalog.TAGS:
            series = named_series(tag, 12)
            assert series.order == 12
        assert named_series("Rinv", 12) == named_series("c", 12)
        assert named_series("d", 12) == named_series("R", 12)

    def test_cache_serves_truncations(self, count_kernel_calls):
        node = dsl.parse("G(q^2)*H(q^3)")  # evaluated by no other test
        long = dsl.evaluate(node, 60)
        calls = count_kernel_calls()
        short = dsl.evaluate(node, 20)
        assert short == long.truncate(20)
        assert calls == []

    def test_aliases_share_one_cache_entry(self, count_kernel_calls):
        named_series("R", 77)
        calls = count_kernel_calls()
        assert named_series("d", 77) == named_series("R", 77)
        assert calls == []

    def test_trees_of_one_product_share_one_entry(self, count_kernel_calls):
        # the manifest's 1/R(q)^5 and the catalog's R(q)^-5 lower to one Product
        catalog.clear_cache()
        a = named_series("A", 400)
        calls = count_kernel_calls()
        assert dsl.evaluate(dsl.parse("1/R(q)^5"), 400) == a
        assert dsl.evaluate(dsl.parse("(poch(2,5)*poch(3,5)/(poch(1,5)*poch(4,5)))^5"), 300) \
            == a.truncate(300)
        assert calls == []

    def test_paper_families_build_without_dense_inversion(self, count_kernel_calls,
                                                          monkeypatch):
        # A, B, C, D, c and d are theta quotients built by sparse kernels
        # alone, with no Euler-sum Pochhammer: A and B by one Miller power
        # and five sparse products each, C from B and D from A by one sparse
        # product and one sparse division, c and d by one sparse division
        # of a theta series
        catalog.clear_cache()
        sums = []
        pochhammer_inf = qfunctions.pochhammer_inf
        monkeypatch.setattr(qfunctions, "pochhammer_inf",
                            lambda *args: sums.append(args) or pochhammer_inf(*args))
        calls = count_kernel_calls()
        for tag in ("A", "B", "C", "D", "c", "d"):
            assert named_series(tag, 3000).order == 3000
        assert Counter(calls) == {"sparse_power": 2, "sparse_mul": 12, "sparse_div": 4}
        assert sums == []
        catalog.clear_cache()

    def test_theta_part_is_served_by_a_cached_product(self, count_kernel_calls):
        # 5*q*R(q)^5 is 5*q times the theta quotient B, which is cached
        catalog.clear_cache()
        b = named_series("B", 3000)
        calls = count_kernel_calls()
        value = dsl.evaluate(dsl.parse("5*q*R(q)^5"), 3000)
        assert calls == []
        assert list(value.coeffs) == [0] + [5 * x for x in b.coeffs[:2999]]
        catalog.clear_cache()

    def test_concurrent_reads(self, count_kernel_calls):
        node = dsl.parse("H(q^2)/G(q^3)")  # evaluated by no other test
        orders = [90 - i for i in range(12)]  # longest first, similar costs
        results = {}

        def worker(order):
            results[order] = dsl.evaluate(node, order)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in orders]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        longest = results[max(orders)]
        assert all(results[n] == longest.truncate(n) for n in orders)
        # a lost update would leave a shorter series cached
        calls = count_kernel_calls()
        assert dsl.evaluate(node, max(orders)) == longest
        assert calls == []


class TestRelations:
    def test_gh_product(self):
        order = 500
        gh = named_series("G", order) * named_series("H", order)
        expected = euler_f(5, order) * euler_f(1, order).invert()
        assert gh == expected

    def test_np_dp_constant_terms(self):
        npoly, dpoly = named_series("Npoly", 10), named_series("Dpoly", 10)
        assert npoly[0] == 1 and dpoly[0] == 1

    @staticmethod
    def _r_of_q5(order):
        return named_series("R", (order + 4) // 5 + 1).dilate(5).truncate(order)

    def test_np_dp_product_and_quotient(self):
        order = 120
        npoly, dpoly = named_series("Npoly", order), named_series("Dpoly", order)
        f1, f5, f25 = (euler_f(k, order) for k in (1, 5, 25))
        r5 = self._r_of_q5(order)
        lhs = npoly * dpoly * f1 * f25**5
        rhs = f5**6 * r5**4
        assert lhs == rhs
        assert npoly * dpoly.invert() == named_series("C", order)

    def test_quintic_modular_equation(self):
        order = 500
        npoly, dpoly = named_series("Npoly", order), named_series("Dpoly", order)
        r5 = self._r_of_q5(order)
        lhs = named_series("R", order) ** 5 * dpoly
        rhs = r5 * npoly
        assert lhs == rhs


class TestFmrs:
    def test_quintic_case_is_r(self):
        assert f_mrs(5, 1, 2, 60) == named_series("R", 60)

    def test_equal_indices_give_one(self):
        from rrseries.series import Series

        assert f_mrs(7, 3, 3, 40) == Series.one(40)

    def test_bounds_checked(self):
        with pytest.raises(SpecOutOfRange):
            f_mrs(5, 0, 2, 10)
        with pytest.raises(SpecOutOfRange):
            f_mrs(5, 1, 5, 10)


class TestLinking:
    def test_all_relations_hold(self):
        reports = linking_relations(600)
        assert len(reports) == 7
        assert all(r.status == "pass" for r in reports)

    def test_first_instance_by_hand(self):
        # 2C(1) = -A(2)
        c = named_series("C", 3)
        a = named_series("A", 3)
        assert 2 * c[1] == -a[2]

    def test_violations_reported(self):
        # B(5n+1) = -A(5n+3) with the sign flipped fails at n = 0, by
        # B(1) - A(3) = 2*B(1)
        wrong = (("B(5n+1) = A(5n+3) below {order}", "B", 1, 1, "A", 1, 3),)
        report, = linking_relations(100, wrong)
        b, a = named_series("B", 2), named_series("A", 4)
        assert report.name == "B(5n+1) = A(5n+3) below 100"
        assert report.status == "fail"
        assert report.first_violation == (0, b[1] - a[3]) == (0, 2 * b[1])
        assert b[1] != 0
        assert report.certified_order == 20
