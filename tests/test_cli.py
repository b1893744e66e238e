"""Command-line interface: formats, exit codes, determinism."""

import decimal
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rrseries import cli, dsl


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


class TestExpand:
    def test_r_coefficients(self):
        code, out = run_cli("expand", "R(q)", "-N", "10")
        assert code == 0
        assert out == "1, -1, 1, 0, -1, 1, -1, 1, 0, -1\n"

    def test_zero(self):
        code, out = run_cli("expand", "0", "-N", "3")
        assert code == 0
        assert out == "0, 0, 0\n"

    def test_a_series_values(self):
        code, out = run_cli("expand", "1/R(q)^5", "-N", "6")
        assert code == 0
        assert out == "1, 5, 10, 5, -15, -24\n"

    def test_csv_format(self):
        code, out = run_cli("expand", "q", "-N", "3", "--format", "csv")
        assert code == 0
        assert out == "index,coefficient\n0,0\n1,1\n2,0\n"

    def test_json_format(self):
        code, out = run_cli("expand", "1+q", "-N", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"expr": "1+q", "order": 4, "coefficients": [1, 1, 0, 0]}

    def test_mod_reduction(self):
        code, out = run_cli("expand", "f1^3 - f3", "-N", "6", "--mod", "3")
        assert code == 0
        assert out == "0, 0, 0, 0, 0, 0\n"

    def test_mod_prints_residues_of_the_exact_series(self):
        dsl.clear_cache()
        code, out = run_cli("expand", "1/R(q)^5", "-N", "300", "--mod", "4")
        assert code == 0
        exact = dsl.evaluate(dsl.parse("1/R(q)^5"), 300)
        assert out == ", ".join(str(c % 4) for c in exact.coeffs) + "\n"

    def test_mod_below_two_exits_2(self, count_kernel_calls, capsys):
        calls = count_kernel_calls()
        code, out = run_cli("expand", "f1", "-N", "6", "--mod", "1")
        assert (code, out) == (2, "")
        assert "modulus 1 must be an int >= 2" in capsys.readouterr().err
        assert calls == []

    def test_order_budget_exits_2_before_building(self, count_kernel_calls, capsys):
        calls = count_kernel_calls()
        code, out = run_cli("expand", "dissect(q,100000000,0)", "-N", "10")
        assert (code, out) == (2, "")
        assert "above the budget" in capsys.readouterr().err
        assert calls == []

    def test_nested_power_budget_exits_2_before_building(self, count_kernel_calls, capsys):
        calls = count_kernel_calls()
        code, out = run_cli("expand", "((2+q)^1000000)^1000000", "-N", "2")
        assert (code, out) == (2, "")
        assert "raised to 1000000 by the powers around it" in capsys.readouterr().err
        assert calls == []

    def test_parse_error_exits_2(self, capsys):
        code, _ = run_cli("expand", "dissect(", "-N", "4")
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_deep_nesting_is_a_parse_error(self, capsys):
        # 99 parentheses put q at the deepest allowed level, 100
        code, _ = run_cli("expand", "(" * 99 + "q" + ")" * 99, "-N", "4")
        assert code == 0
        code, _ = run_cli("expand", "(" * 200 + "q" + ")" * 200, "-N", "4")
        assert code == 2
        assert "(line 1, column 101)" in capsys.readouterr().err

    def test_deep_tree_is_a_parse_error(self, capsys):
        chain = "+".join(["q"] * 500)
        code, out = run_cli("expand", chain, "-N", "4")
        assert (code, out) == (2, "")
        assert "expression tree deeper than" in capsys.readouterr().err
        nested = "q"
        for _ in range(99):
            nested = f"({nested} + q+q+q+q+q+q+q)"
        code, out = run_cli("expand", nested, "-N", "4")
        assert (code, out) == (2, "")
        assert "(line 1, column" in capsys.readouterr().err

    def test_eval_error_exits_2(self, capsys):
        code, _ = run_cli("expand", "1/q", "-N", "4")
        assert code == 2

    def test_byte_identical_runs(self):
        first = run_cli("expand", "G(q)*H(q)", "-N", "40", "--format", "csv")
        second = run_cli("expand", "G(q)*H(q)", "-N", "40", "--format", "csv")
        assert first == second


class TestLargeIntegers:
    # 1000^1499 has 4498 digits, past the interpreter's 4300-digit str() limit.
    BIG = 1000**1499

    def test_expand_text(self):
        code, out = run_cli("expand", "(1-1000*q)^-1", "-N", "1500")
        assert code == 0
        last = out.rstrip("\n").split(", ")[-1]
        assert int(decimal.Decimal(last)) == self.BIG

    def test_expand_csv(self):
        code, out = run_cli("expand", "(1-1000*q)^-1", "-N", "1500", "--format", "csv")
        assert code == 0
        index, last = out.splitlines()[-1].split(",")
        assert (index, int(decimal.Decimal(last))) == ("1499", self.BIG)

    def test_expand_json(self):
        code, out = run_cli("expand", "(1-1000*q)^-1", "-N", "1500", "--format", "json")
        assert code == 0
        payload = json.loads(out, parse_int=lambda text: int(decimal.Decimal(text)))
        assert payload["order"] == 1500
        assert payload["coefficients"][-1] == self.BIG

    @pytest.fixture
    def big_manifest(self, tmp_path):
        path = tmp_path / "big.manifest"
        path.write_text("[big] : dissect((1-1000*q)^-1, 1500, 1499) == 0\n", encoding="utf-8")
        return str(path)

    def test_report_text(self, big_manifest):
        code, out = run_cli("verify", "--manifest", big_manifest, "-N", "1")
        assert code == 1
        note = out.splitlines()[2].split("first violation at n=0: ")[1]
        assert int(decimal.Decimal(note)) == self.BIG

    def test_report_json(self, big_manifest):
        code, out = run_cli("verify", "--manifest", big_manifest, "-N", "1", "--format", "json")
        assert code == 1
        (report,) = json.loads(out, parse_int=lambda text: int(decimal.Decimal(text)))
        assert report["status"] == "fail"
        assert report["first_violation"] == {"index": 0, "value": self.BIG}


class TestVerify:
    def test_good_manifest(self, tmp_path):
        path = tmp_path / "ok.manifest"
        path.write_text("[gh] : G(q)*H(q) == f5/f1 @ product\n", encoding="utf-8")
        code, out = run_cli("verify", "--manifest", str(path), "-N", "60")
        assert code == 0
        assert "pass" in out

    def test_perturbed_manifest_exits_1(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text(
            "[gh] : G(q)*H(q) == f5/f1 @ product\n"
            "[broken] : G(q)*H(q) == f5/f1 + q^3 @ perturbed\n",
            encoding="utf-8",
        )
        code, out = run_cli("verify", "--manifest", str(path), "-N", "60")
        assert code == 1
        assert "first violation at n=3" in out

    def test_bundled_manifest_text_runs_deterministic(self, tmp_path):
        first = run_cli("verify", "-N", "40")
        second = run_cli("verify", "-N", "40")
        assert first == second
        assert first[0] == 0

    def test_bad_product_parameters_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.manifest"
        path.write_text("[ok] : q == q\n[bad] : poch(0,5) == 1\n", encoding="utf-8")
        code, out = run_cli("verify", "--manifest", str(path), "-N", "10")
        assert (code, out) == (2, "")
        assert "record 'bad', line 2: poch(a,m) needs" in capsys.readouterr().err

    def test_bad_dissection_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.manifest"
        path.write_text("[ok] : q == q\n[bad] : dissect(q,5,7) == 0\n", encoding="utf-8")
        code, out = run_cli("verify", "--manifest", str(path), "-N", "10")
        assert (code, out) == (2, "")
        assert "record 'bad', line 2: dissection needs" in capsys.readouterr().err

    def test_evaluation_error_is_printed(self, tmp_path):
        path = tmp_path / "bad.manifest"
        path.write_text("[x] : 1/(3+q) == 1\n", encoding="utf-8")
        code, out = run_cli("verify", "--manifest", str(path), "-N", "10")
        assert code == 1
        assert ("error: cannot divide: constant term 3 is not a unit in Z[[q]] in 3 + q"
                " (at denominator)") in out
        assert "first violation" not in out

    def test_json_format(self, tmp_path):
        path = tmp_path / "ok.manifest"
        path.write_text("[gh] : G(q)*H(q) == f5/f1 @ product\n", encoding="utf-8")
        code, out = run_cli("verify", "--manifest", str(path), "-N", "50",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["status"] == "pass"
        assert payload[0]["certified_order"] == 50


    @pytest.mark.parametrize("command", ["verify", "paper-suite"])
    def test_order_budget_exits_2_before_building(self, count_kernel_calls, capsys, command):
        calls = count_kernel_calls()
        dsl.clear_cache()
        code, out = run_cli(command, "-N", "2000000")
        assert (code, out) == (2, "")
        assert "needs order 2000000, above the budget of 1000000" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["verify", "paper-suite"])
    def test_a_later_record_over_budget_stops_the_run_before_building(
            self, count_kernel_calls, capsys, monkeypatch, tmp_path, command):
        # the first record fits the budget; the second needs order 16 * 70000
        path = tmp_path / "deep.manifest"
        path.write_text("[a] : f1^2 == f1*f1\n[b] : dissect(f1,16,0) == f1\n", encoding="utf-8")
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked before the budget check"))
        calls = count_kernel_calls()
        dsl.clear_cache()
        code, out = run_cli(command, "--manifest", str(path), "-N", "70000")
        assert (code, out) == (2, "")
        assert ("error: f1 needs order 1120000, above the budget of 1000000"
                in capsys.readouterr().err)
        assert calls == []

    @pytest.mark.parametrize("command", ["verify", "paper-suite"])
    def test_a_manifest_without_records_exits_2_before_building(
            self, count_kernel_calls, capsys, monkeypatch, tmp_path, command):
        # only comments and blank lines: a pass would check nothing
        path = tmp_path / "comments.manifest"
        path.write_text("# no records yet\n\n   # indented\n", encoding="utf-8")
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked for an empty manifest"))
        calls = count_kernel_calls()
        dsl.clear_cache()
        code, out = run_cli(command, "--manifest", str(path), "-N", "40")
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: {path} has no records, so verifying it would check nothing\n")
        assert calls == []


class TestScans:
    def test_sign_scan(self):
        code, out = run_cli("scan", "--series", "A", "--period", "5",
                            "--residue", "4", "--sign", "neg", "--max-n", "300")
        assert code == 0

    def test_sign_scan_with_exceptions(self):
        code, _ = run_cli("scan", "--series", "c", "--period", "5", "--residue", "4",
                          "--sign", "neg", "--exceptions", "4,9", "--max-n", "300")
        assert code == 0

    def test_failing_scan_exits_1(self):
        code, out = run_cli("scan", "--series", "A", "--period", "5",
                            "--residue", "4", "--sign", "pos", "--max-n", "300")
        assert code == 1
        assert "first violation" in out

    def test_congruence_scan(self):
        code, _ = run_cli("check-congruence", "--series", "B", "--period", "16",
                          "--residue", "11", "--mod", "4", "--max-n", "300")
        assert code == 0

    def test_expr_target(self):
        code, _ = run_cli("scan", "--expr", "f5/f1", "--period", "1",
                          "--residue", "0", "--sign", "pos", "--max-n", "200")
        assert code == 0

    def test_period_check(self):
        code, out = run_cli("period-check", "--series", "d", "--period", "5",
                            "--max-n", "300", "--prefix", "30")
        assert code == 0
        assert "minimal_prefix=24" in out

    def test_period_check_expr_resolves_as_series(self):
        args = ("--period", "5", "--max-n", "300", "--prefix", "30", "--format", "json")
        (expr,) = json.loads(run_cli("period-check", "--expr", "R(q)", *args)[1])
        (series,) = json.loads(run_cli("period-check", "--series", "d", *args)[1])
        assert expr["detail"] == series["detail"] == {"minimal_prefix": 24, "period": 5}
        assert expr["status"] == series["status"] == "pass"

    def test_period_below_one_exits_2(self, capsys):
        code, out = run_cli("period-check", "--series", "A", "--period", "0",
                            "--max-n", "50")
        assert code == 2
        assert out == ""
        assert "period must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--period", "0"), "period must be >= 1"),
        (("--period", "5", "--prefix", "-3"), "prefix must be in [0, 300)"),
        (("--period", "5", "--prefix", "300"), "prefix must be in [0, 300)"),
        # no residue class has two indices to compare
        (("--period", "150"), "order - prefix = 150 is not above the period 150"),
        (("--period", "3", "--max-n", "1"), "order - prefix = 1 is not above the period 3"),
    ])
    def test_bad_period_arguments_build_nothing(self, count_kernel_calls, capsys, flags, message):
        calls = count_kernel_calls()
        # an expression no other test evaluates, so nothing is cached
        code, out = run_cli("period-check", "--expr", "poch(3,11)*poch(6,13)/poch(2,9)",
                            "--max-n", "300", *flags)
        assert (code, out) == (2, "")
        assert message in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("period", ["0", "-3"])
    def test_scan_period_below_one_exits_2(self, capsys, period):
        code, out = run_cli("scan", "--series", "A", "--period", period, "--residue", "0",
                            "--sign", "pos")
        assert (code, out) == (2, "")
        assert "period must be >= 1" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        code, _ = run_cli("scan", "--series", "A", "--period", "5",
                          "--residue", "7", "--sign", "neg")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("scan", "--expr", "R(q)", "--period", "10", "--residue", "7", "--max-n", "5",
         "--sign", "pos"),
        ("check-congruence", "--series", "A", "--period", "9", "--residue", "4",
         "--max-n", "3", "--mod", "3"),
        ("scan", "--series", "C", "--period", "5", "--residue", "0", "--max-n", "5",
         "--sign", "neg", "--exceptions", "0"),
    ])
    def test_vacuous_scan_exits_2_before_building(self, count_kernel_calls, capsys, argv):
        dsl.clear_cache()
        calls = count_kernel_calls()
        code, out = run_cli(*argv)
        assert (code, out) == (2, "")
        assert "so the scan would check nothing" in capsys.readouterr().err
        assert calls == []


class TestPaperSuite:
    def test_text_output_is_pinned(self):
        # Report names, statuses, orders and notes of the whole suite; a change
        # that raises certified orders regenerates the file on purpose.
        golden = Path(__file__).parent / "data" / "paper_suite_N300_scan1000.txt"
        code, out = run_cli("paper-suite", "-N", "300", "--scan-n", "1000")
        assert code == 0
        assert out == golden.read_text(encoding="utf-8")


    @pytest.mark.parametrize("order, scan_n, message", [
        ("500", "20", "conjecture: C(32n+28) = 0 (mod 8): no index n < 20 with n = 28 (mod 32)"),
        ("300", "2000000", "R(q)^-5 needs order 2000000, above the budget of 1000000"),
    ])
    def test_bad_scan_order_exits_2_before_building(self, count_kernel_calls, capsys,
                                                     order, scan_n, message):
        dsl.clear_cache()
        calls = count_kernel_calls()
        code, out = run_cli("paper-suite", "-N", order, "--scan-n", scan_n)
        assert (code, out) == (2, "")
        assert message in capsys.readouterr().err
        assert calls == []


class TestEntryPoint:
    def test_module_invocation(self):
        # the package's own source first, whatever the caller's PYTHONPATH
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rrseries.cli", "expand", "q", "-N", "3"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0, 1, 0\n"

    def test_help_exits_zero(self):
        code, _ = run_cli("--help")
        assert code == 0
