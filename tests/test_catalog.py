"""Catalog of named series and the relations tying them together."""

import sys
import threading

import pytest

from rrseries import _backend, catalog, dsl, partitions
from rrseries.catalog import f_mrs, linking_relations, named_series, np_dp_polynomials, parent_order
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


def count_kernel_calls(monkeypatch):
    """Record the name of every kernel call from now to the end of the test."""
    calls = []
    for name in ("mul_trunc", "invert_trunc", "binomial_update"):
        kernel = getattr(_backend, name)

        def counted(*args, _name=name, _kernel=kernel):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(_backend, name, counted)
    return calls


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

    def test_cache_serves_truncations(self, monkeypatch):
        node = dsl.parse("G(q^2)*H(q^3)")  # evaluated by no other test
        long = dsl.evaluate(node, 60)
        calls = count_kernel_calls(monkeypatch)
        short = dsl.evaluate(node, 20)
        assert short == long.truncate(20)
        assert calls == []

    def test_aliases_share_one_cache_entry(self, monkeypatch):
        named_series("R", 77)
        calls = count_kernel_calls(monkeypatch)
        assert named_series("d", 77) == named_series("R", 77)
        assert calls == []

    def test_concurrent_reads(self, monkeypatch):
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
        calls = count_kernel_calls(monkeypatch)
        assert dsl.evaluate(node, max(orders)) == longest
        assert calls == []


class TestRelations:
    def test_gh_product(self):
        order = 500
        gh = named_series("G", order) * named_series("H", order)
        expected = euler_f(5, order) * euler_f(1, order).invert()
        assert gh == expected

    def test_np_dp_constant_terms(self):
        npoly, dpoly = np_dp_polynomials(10)
        assert npoly[0] == 1 and dpoly[0] == 1

    @staticmethod
    def _r_of_q5(order):
        return named_series("R", (order + 4) // 5 + 1).dilate(5).truncate(order)

    def test_np_dp_product_and_quotient(self):
        order = 120
        npoly, dpoly = np_dp_polynomials(order)
        f1, f5, f25 = (euler_f(k, order) for k in (1, 5, 25))
        r5 = self._r_of_q5(order)
        lhs = npoly * dpoly * f1 * f25**5
        rhs = f5**6 * r5**4
        assert lhs == rhs
        assert npoly * dpoly.invert() == named_series("C", order)

    def test_quintic_modular_equation(self):
        order = 500
        npoly, dpoly = np_dp_polynomials(order)
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
        # relations compare dissections; sanity-check report shape on pass
        report = linking_relations(100)[0]
        assert report.first_violation is None
        assert report.certified_order > 0


class TestParentOrder:
    def test_worst_residue(self):
        assert parent_order(100, 5) == 500

    def test_specific_residue(self):
        assert parent_order(100, 5, 2) == 5 * 99 + 3

    def test_round_trip_through_dissect(self):
        from rrseries.series import Series

        s = Series(range(parent_order(20, 3, 1)))
        assert s.dissect(3, 1).order == 20
