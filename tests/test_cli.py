"""Command-line interface: formats, exit codes, determinism."""

import io
import json
import subprocess
import sys

from rrseries import cli


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

    def test_eval_error_exits_2(self, capsys):
        code, _ = run_cli("expand", "1/q", "-N", "4")
        assert code == 2

    def test_byte_identical_runs(self):
        first = run_cli("expand", "G(q)*H(q)", "-N", "40", "--format", "csv")
        second = run_cli("expand", "G(q)*H(q)", "-N", "40", "--format", "csv")
        assert first == second


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

    def test_json_format(self, tmp_path):
        path = tmp_path / "ok.manifest"
        path.write_text("[gh] : G(q)*H(q) == f5/f1 @ product\n", encoding="utf-8")
        code, out = run_cli("verify", "--manifest", str(path), "-N", "50",
                            "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["status"] == "pass"
        assert payload[0]["certified_order"] == 50


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

    def test_period_below_one_exits_2(self, capsys):
        code, out = run_cli("period-check", "--series", "A", "--period", "0",
                            "--max-n", "50")
        assert code == 2
        assert out == ""
        assert "period must be >= 1" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        code, _ = run_cli("scan", "--series", "A", "--period", "5",
                          "--residue", "7", "--sign", "neg")
        assert code == 2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rrseries.cli", "expand", "q", "-N", "3"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0, 1, 0\n"

    def test_help_exits_zero(self):
        code, _ = run_cli("--help")
        assert code == 0
