"""Verification engine: identity checks, scans, periodicity, reports."""

import io
import json
import types

import pytest

from rrseries import catalog, cli, dsl, partitions, verify
from rrseries.dsl import evaluate, parse, parse_record
from rrseries.report import reports_to_json, reports_to_text
from rrseries.series import Series
from rrseries.verify import ScanSpec, period_check, scan, verify_identity


class TestVerifyIdentity:
    def test_quintic_reciprocal_difference_passes(self):
        rec = parse_record(
            "[r15] : 1/R(q)^5 - q^2*R(q)^5 == 11*q + f1^6/f5^6 @ quintic"
        )
        report = verify_identity(rec, 500)
        assert report.status == "pass"
        assert report.certified_order == 500
        assert report.first_violation is None

    def test_cube_identity_passes(self):
        rec = parse_record(
            "[cube] : G(q)*G(q^9) + q^2*H(q)*H(q^9) == f3^2/(f1*f9) @ cube"
        )
        assert verify_identity(rec, 300).status == "pass"

    def test_perturbed_rhs_fails_at_perturbation(self):
        rec = parse_record("[bad] : G(q)*H(q) == f5/f1 + q^3 @ perturbed")
        report = verify_identity(rec, 50)
        assert report.status == "fail"
        assert report.first_violation[0] == 3

    def test_congruence_record(self):
        rec = parse_record("[cube3] (mod 3) : f1^3 == f3 @ cube congruence")
        assert verify_identity(rec, 200).status == "pass"

    def test_congruence_record_fails_exactly(self):
        rec = parse_record("[cube3x] : f1^3 == f3 @ not an exact identity")
        report = verify_identity(rec, 200)
        assert report.status == "fail"
        assert report.first_violation[0] == 1

    def test_evaluation_error_becomes_diagnostic_fail(self):
        rec = parse_record("[div0] : 1/q == q @ division by non-unit")
        report = verify_identity(rec, 10)
        assert report.status == "fail"
        assert "error" in report.detail


class TestCongruencesModM:
    """(mod m) records and divisibility scans read the exact series, so a
    failure reports the unreduced value and leaves the series cached."""

    def test_false_congruence_reports_the_exact_difference(self):
        record = parse_record(
            "[a16n13-false] (mod 4) : dissect(1/R(q)^5, 16, 13) == 2*f1*f5*f4^3"
            " + 2*q*f2*f10^4 + 2*q^2*f1*f5*f20^3 - 2*f8*f10 + q^7 @ perturbed")
        order = 40
        dsl.clear_cache()
        report = verify_identity(record, order)
        dsl.clear_cache()
        # the exact path: the unreduced difference at the first index not 0 mod 4
        difference = (evaluate(record.lhs, order) - evaluate(record.rhs, order)).coeffs
        n = next(n for n, d in enumerate(difference) if d % 4)
        assert n == 7 and abs(difference[n]) > 4
        assert (report.status, report.certified_order, report.first_violation, report.detail) == (
            "fail", order, (n, difference[n]), {})

    def test_failing_divisibility_scan_reports_the_exact_coefficient(self):
        spec = ScanSpec(name="x", target="A", period=16, residue=13, divisor=8, max_n=400)
        dsl.clear_cache()
        report = scan(spec)
        a = catalog.named_series("A", 400)
        n = next(n for n in range(13, 400, 16) if a[n] % 8)
        assert (report.status, report.first_violation) == ("fail", (n, a[n]))
        assert abs(a[n]) > 8

    def test_failing_divisibility_scan_caches_the_exact_series(self, count_kernel_calls):
        tree = parse("poch(1,7)^-3*R(q)^2")
        dsl.clear_cache()
        report = scan(ScanSpec(name="x", target=tree, period=3, residue=1, divisor=4,
                               max_n=400))
        assert (report.status, report.first_violation[0]) == ("fail", 1)
        calls = count_kernel_calls()
        series = evaluate(tree, 400)
        assert calls == []
        assert report.first_violation == (1, series[1])

    def test_evaluation_error_in_congruence_is_a_diagnostic(self):
        report = verify_identity(parse_record("[x] (mod 4) : 1/(3+q) == 3 - q @ x"), 10)
        assert report.status == "fail"
        assert "constant term 3 is not a unit" in report.detail["error"]


class TestScan:
    def test_a_5n4_negative(self):
        spec = ScanSpec(name="x", target="A", period=5, residue=4,
                        sign=verify.SIGN_NEG, max_n=400)
        assert scan(spec).status == "pass"

    def test_c_5n_negative_with_exception(self):
        spec = ScanSpec(name="x", target="C", period=5, residue=0,
                        sign=verify.SIGN_NEG, exceptions=(0,), max_n=400)
        assert scan(spec).status == "pass"

    def test_c_5n_fails_without_exception(self):
        spec = ScanSpec(name="x", target="C", period=5, residue=0,
                        sign=verify.SIGN_NEG, max_n=400)
        report = scan(spec)
        assert report.status == "fail"
        assert report.first_violation == (0, 1)

    def test_congruence_scan(self):
        spec = ScanSpec(name="x", target="A", period=16, residue=13,
                        divisor=4, max_n=400)
        assert scan(spec).status == "pass"

    def test_d_5n3_with_exact_exceptions(self):
        spec = ScanSpec(name="x", target="d", period=5, residue=3,
                        sign=verify.SIGN_NEG, exceptions=(3, 8, 13, 23), max_n=400)
        assert scan(spec).status == "pass"

    def test_zero_is_a_sign_violation(self):
        series = Series([1, 0, 1, 1])
        spec = ScanSpec(name="x", target=series, period=1, residue=0,
                        sign=verify.SIGN_POS, max_n=4)
        report = scan(spec)
        assert report.status == "fail"
        assert report.first_violation == (1, 0)

    def test_exception_skips_violation(self):
        series = Series([1, 0, 1, 1])
        spec = ScanSpec(name="x", target=series, period=1, residue=0,
                        sign=verify.SIGN_POS, exceptions=(1,), max_n=4)
        assert scan(spec).status == "pass"

    def test_expression_target(self):
        spec = ScanSpec(name="x", target=parse("f5/f1"), period=1, residue=0,
                        sign=verify.SIGN_POS, max_n=200)
        assert scan(spec).status == "pass"

    def test_report_only_statuses(self):
        series = Series([1, -1])
        good = ScanSpec(name="x", target=series, period=2, residue=0,
                        sign=verify.SIGN_POS, max_n=2)
        bad = ScanSpec(name="x", target=series, period=2, residue=1,
                       sign=verify.SIGN_POS, max_n=2)
        assert scan(good, report_only=True).status == "report-only-pass"
        assert scan(bad, report_only=True).status == "report-only-fail"

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ScanSpec(name="x", target="A", period=5, residue=5, sign="+")
        with pytest.raises(ValueError):
            ScanSpec(name="x", target="A", period=5, residue=0)
        with pytest.raises(ValueError):
            ScanSpec(name="x", target="A", period=5, residue=0, sign="+", divisor=3)
        with pytest.raises(ValueError):
            ScanSpec(name="x", target="A", period=5, residue=0, divisor=1)

    @pytest.mark.parametrize("target, residue, exceptions, max_n", [
        ("A", 4, (), 3),               # the progression starts at max_n or later
        (parse("R(q)"), 7, (), 5),
        ("C", 0, (0,), 5),             # its one index below max_n is excepted
        (Series([1, 2, 3]), 1, (1,), 100),  # the Series is shorter than max_n
    ])
    def test_vacuous_scan_is_refused_before_building(self, count_kernel_calls, target,
                                                     residue, exceptions, max_n):
        spec = ScanSpec(name="x", target=target, period=9, residue=residue,
                        divisor=3, exceptions=exceptions, max_n=max_n)
        dsl.clear_cache()
        calls = count_kernel_calls()
        with pytest.raises(ValueError, match="would check nothing"):
            scan(spec)
        assert calls == []


class TestPeriodCheck:
    def test_constant_series(self):
        report = period_check(Series([2] * 40), 7, prefix=1)
        assert report.status == "pass"
        assert report.detail["minimal_prefix"] == 0

    def test_periodic_after_prefix(self):
        # even class deviates at 2, odd class at 1: minimal prefix is 3
        coeffs = [1, 1, -1, -1] + [1, -1] * 18
        report = period_check(Series(coeffs), 2, prefix=6)
        assert report.status == "pass"
        assert report.detail["minimal_prefix"] == 3

    def test_prefix_too_small_fails(self):
        coeffs = [1, 1, -1, -1] + [1, -1] * 18
        report = period_check(Series(coeffs), 2, prefix=2)
        assert report.status == "fail"

    def test_zero_its_own_class(self):
        # a zero inside an otherwise positive class breaks periodicity there
        coeffs = [1, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1]
        report = period_check(Series(coeffs), 2, prefix=0)
        assert report.detail["minimal_prefix"] == 4

    def test_c_series_minimal_prefix_is_ten(self):
        from rrseries.catalog import named_series

        report = period_check(named_series("c", 300), 5, prefix=50)
        assert report.status == "pass"
        assert report.detail["minimal_prefix"] == 10

    def test_d_series_minimal_prefix_is_24(self):
        from rrseries.catalog import named_series

        report = period_check(named_series("d", 300), 5, prefix=50)
        assert report.detail["minimal_prefix"] == 24

    def test_prefix_beyond_order_rejected(self):
        with pytest.raises(ValueError):
            period_check(Series([1, 2]), 2, prefix=5)

    def test_a_check_that_compares_nothing_is_rejected(self):
        period_check(Series([1] * 8), 5, prefix=2)  # 2 and 7 compare
        with pytest.raises(ValueError, match="no residue class has two indices to compare"):
            period_check(Series([1] * 8), 5, prefix=3)


class TestOracles:
    def test_each_partition_oracle_times_its_own_counts(self, monkeypatch):
        # a fake clock that moves only inside partitions.counts, by 2^i on
        # the i-th call: each oracle's elapsed is exactly its own call's step
        now, steps = [0], []
        clock = types.SimpleNamespace(perf_counter=lambda: now[0])
        for module in ("verify", "catalog", "report"):
            monkeypatch.setattr(f"rrseries.{module}.time", clock)
        counts = partitions.counts

        def counted(*args, **kwargs):
            steps.append(2 ** len(steps))
            result = counts(*args, **kwargs)
            now[0] += steps[-1]
            return result

        monkeypatch.setattr(partitions, "counts", counted)
        reports = verify._oracle_reports(40, 60)
        oracles = reports[:len(verify.PARTITION_ORACLES)]
        assert [r.name for r in oracles] == [
            f"{name} for n <= 40" for name, *_ in verify.PARTITION_ORACLES]
        assert all(r.status == "pass" for r in reports)
        assert [r.elapsed for r in oracles] == steps == [1, 2, 4, 8]
        assert [r.elapsed for r in reports[len(oracles):]] == [0, 0, 0]
        assert [r.name for r in reports[len(oracles):]] == [
            "A(5n+2) = 10*b25(5n) below index 60", "A(5n+3) = 5*F(5n) below index 60",
            "spot values D(3)=5, D(8)=25, D(13)=155"]


class TestReports:
    def test_text_rendering_has_no_timing(self):
        spec = ScanSpec(name="demo", target=Series([1, 1]), period=1, residue=0,
                        sign=verify.SIGN_POS, max_n=2)
        text = reports_to_text([scan(spec)])
        assert "elapsed" not in text
        assert "demo" in text

    def test_json_rendering_includes_timing(self):
        spec = ScanSpec(name="demo", target=Series([1, 1]), period=1, residue=0,
                        sign=verify.SIGN_POS, max_n=2)
        payload = json.loads(reports_to_json([scan(spec)]))
        assert payload[0]["name"] == "demo"
        assert "elapsed_ms" in payload[0]
        assert payload[0]["first_violation"] is None

    def test_determinism_modulo_timing(self):
        rec = parse_record("[gh] : G(q)*H(q) == f5/f1 @ product")
        def strip(report):
            d = report.to_dict()
            d.pop("elapsed_ms")
            return d
        first = [strip(verify_identity(rec, 80))]
        second = [strip(verify_identity(rec, 80))]
        assert first == second


class TestVerifyManifest:
    # dilate(f1, 16) keeps the order-16N series the dissection needs cheap.
    RECORD = "[w16] : dissect(dilate(f1, 16), 16, 0) == f1 @ f1(q^16) dissected\n"

    @pytest.mark.parametrize("order", [500, 60])
    def test_period_16_record_is_certified_at_requested_order(self, tmp_path, order):
        path = tmp_path / "wide.manifest"
        path.write_text(self.RECORD, encoding="utf-8")
        (report,) = verify.verify_manifest(str(path), order)
        assert (report.name, report.status, report.certified_order) == ("w16", "pass", order)
        out = io.StringIO()
        assert cli.main(["verify", "--manifest", str(path), "-N", str(order)], out=out) == 0
        assert out.getvalue().splitlines()[2].split() == ["w16", "pass", str(order)]
