import json
import math
import os
import subprocess
import sys

import pytest

import specfun
from specfun import cli, gamma, hyper


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_gamma_half(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "gamma", "0.5")
        assert code == 0
        value = float(out.split()[0])
        assert value == gamma.gamma(0.5)  # round-trips to the bit
        assert abs(value - math.sqrt(math.pi)) < 1e-13

    def test_theta(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "theta", "1")
        assert code == 0
        assert abs(float(out.split()[0]) - 0.3359) < 5e-5

    def test_f21_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "f21", "0.5", "0.5", "1", "0")
        assert code == 0
        assert float(out.split()[0]) == 1.0
        assert "abs_err_estimate=" in out

    def test_estimate_payloads(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "karatsuba_euler_gamma", "20")
        assert code == 0
        assert "error_bound=" in out
        value = float(out.split()[0])
        assert abs(value - gamma.EULER_GAMMA) < 1.7e-6

    @pytest.mark.parametrize("argv", [("legendre_residual", "0.3"),
                                      ("generalized_legendre_residual", "0.25", "0.3")])
    def test_residual_prints_its_scale(self, capsys, argv):
        code, out, _ = run_cli(capsys, "eval", *argv)
        assert code == 0
        residual, scale = out.split()
        assert abs(float(residual)) < 1e-14
        assert scale.startswith("scale=") and float(scale[len("scale="):]) > 1.0

    def test_gauss_value_at_one(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "gauss_value_at_one", "0.1", "0.2", "1")
        assert code == 0
        assert float(out) == hyper.gauss_value_at_one(hyper.HyperParams(0.1, 0.2, 1.0))

    def test_detemple_prints_its_three_values(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "detemple", "10")
        assert code == 0
        rec = gamma.detemple(10)
        assert out.split() == [repr(rec.big_h), f"d_n={rec.d_n!r}", f"r_n={rec.r_n!r}"]

    def test_unknown_function(self, capsys):
        code, _, err = run_cli(capsys, "eval", "nope", "1")
        assert code == 2
        assert "unknown function" in err

    def test_bad_arity(self, capsys):
        code, _, err = run_cli(capsys, "eval", "gamma")
        assert code == 2
        assert "expected 1 argument" in err

    def test_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "eval", "gamma", "0")
        assert code == 2
        assert "pole" in err

    def test_integer_argument_check(self, capsys):
        code, _, err = run_cli(capsys, "eval", "detemple", "2.5")
        assert code == 2

    @pytest.mark.parametrize("argv", [("detemple", "inf"), ("pochhammer", "0.5", "inf")])
    def test_non_finite_integer_argument(self, capsys, argv):
        code, _, err = run_cli(capsys, "eval", *argv)
        assert code == 2
        assert "expected an integer, got inf" in err

    @pytest.mark.parametrize("a", ["0.5", "0.16666666666666666", "0.3"])
    @pytest.mark.parametrize("r", ["1e-12", "0.7", "0.999999"])
    def test_mu_a_inverse_round_trips_mu_a(self, capsys, a, r):
        code, out, _ = run_cli(capsys, "eval", "mu_a", a, r)
        assert code == 0
        code, out, _ = run_cli(capsys, "eval", "mu_a_inverse", a, out.split()[0])
        assert code == 0
        assert abs(float(out.split()[0]) / float(r) - 1.0) <= 1e-12

    def test_mu_a_inverse_saturation(self, capsys):
        code, _, err = run_cli(capsys, "eval", "mu_a_inverse", "0.5", "800")
        assert code == 2
        assert "underflows" in err


class TestVerify:
    def test_stdout_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "balls", "--grid", "16")
        assert code == 0
        data = json.loads(out)
        assert data["suite"] == "balls"
        assert data["summary"]["failed"] == 0

    def test_csv_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        code, out, _ = run_cli(capsys, "verify", "--suite", "modular", "--grid", "8",
                               "--csv", str(target))
        assert code == 0
        lines = target.read_text().strip().splitlines()
        assert len(lines) == 10  # header + 9 registered identities

    def test_json_file(self, tmp_path, capsys):
        target = tmp_path / "rep.json"
        code, _, _ = run_cli(capsys, "verify", "--suite", "modular", "--grid", "8",
                             "--json", str(target))
        assert code == 0
        data = json.loads(target.read_text())
        assert data["summary"] == {"total": 9, "passed": 9, "failed": 0}

    def test_unknown_suite(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_unwritable_path(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "modular", "--grid", "4",
                               "--json", "/nonexistent_dir_xyz/report.json")
        assert code == 3
        assert "cannot write" in err

    def test_failure_exit_code(self, tmp_path, capsys):
        # each failed check is named on stderr, so a CI log names it
        # without opening the report
        target = tmp_path / "rep.json"
        code, _, err = run_cli(capsys, "verify", "--suite", "modular", "--grid", "4",
                               "--tol-scale", "1e-9", "--json", str(target))
        assert code == 1
        failed = {r["id"]: r for r in json.loads(target.read_text())["results"] if not r["passed"]}
        lines = err.splitlines()
        assert failed and len(lines) == len(failed)
        for line in lines:
            tag, check_id, residual, argmax = line.split(" ")
            assert tag == "FAIL"
            assert residual == f"max_residual={failed[check_id]['max_residual']!r}"
            assert argmax == f"argmax={failed[check_id]['argmax']!r}"
        assert {line.split(" ")[1] for line in lines} == set(failed)

    @pytest.mark.parametrize("option,value", [
        ("--tol-scale", "nan"), ("--tol-scale", "inf"), ("--tol-scale", "-1"),
        ("--tol-scale", "0"), ("--grid", "1"), ("--grid", "0"), ("--grid", "-5"),
    ])
    def test_bad_tol_scale_or_grid_is_a_usage_error(self, capsys, option, value):
        # inf would pass every check and nan fail every one; no grid is clamped
        code, out, err = run_cli(capsys, "verify", "--suite", "balls", option, value)
        assert code == 2
        assert out == ""
        assert err.startswith("verify: ")


class TestTable:
    def test_theta_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "theta")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 15  # header + 13 finite rows + limit row
        assert "0.9675" in lines[1]
        assert lines[-1].lstrip().startswith("inf")

    def test_gamma_const_table(self, capsys):
        code, out, _ = run_cli(capsys, "table", "gamma-const")
        assert code == 0
        assert "1000" in out
        assert "1.649e-06" in out

    def test_bad_choice(self, capsys):
        code, _, _ = run_cli(capsys, "table", "zeta")
        assert code == 2


def test_module_entry_point_runs_cli_once():
    # the package does not import cli, so ``python -m specfun.cli`` runs it
    # only as __main__ and warns about nothing
    src = os.path.dirname(os.path.dirname(specfun.__file__))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "specfun.cli", "eval", "gamma", "0.5"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert float(proc.stdout.split()[0]) == gamma.gamma(0.5)
