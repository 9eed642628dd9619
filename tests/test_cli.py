"""The exit codes of the command line, called in process through ``cli.main``.

0 success, 1 a failed verification check, 2 invalid input (no output file is
created), 3 a numerical failure.
"""

import copy
import json
import re

import pytest

from kapteynq import cli
from kapteynq.verify import verification_passed


@pytest.fixture
def out(tmp_path):
    return tmp_path / "report.json"


def _runs(argv, path, times=2):
    """The bytes written by ``times`` in-process runs, runtime_ms zeroed."""
    texts = []
    for _ in range(times):
        assert cli.main(argv + ["--format", "json", "--out", str(path)]) == 0
        texts.append(re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', path.read_text()))
    return texts


@pytest.fixture(scope="module")
def verify_runs(tmp_path_factory):
    return _runs(["verify"], tmp_path_factory.mktemp("verify") / "report.json")


def test_solve_exits_0(out):
    assert cli.main(["solve", "--d", "1", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["results"]["converged"] is True
    assert doc["results"]["C_numeric"] == pytest.approx(doc["results"]["C_closed"], rel=1e-12)


@pytest.mark.parametrize("argv", [
    ["solve", "--d", "-1"],
    ["solve", "--d", "1", "--max-terms", "5"],
    ["sweep", "--d-min", "2", "--d-max", "1", "--points", "3"],
    ["identity", "--eps", "1.5"],
    ["solve", "--d", "1", "--bogus"],
    ["solve", "--d", "1", "--tol", "inf"],
    ["identity", "--eps", "0.8", "--tol", "inf"],
    ["solve", "--d", "1e-300"],  # eps = 1/sqrt(D+1) rounds to 1
])
def test_invalid_input_exits_2_and_writes_nothing(argv, out):
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_too_small_d_names_d_and_the_limit(capsys):
    assert cli.main(["solve", "--d", "1e-300"]) == 2
    assert capsys.readouterr().err == (
        "error: D must be at least about 3.3e-16, below which eps = 1/sqrt(D+1) "
        "rounds to 1; got 1e-300\n")


def test_invalid_env_max_terms_exits_2(monkeypatch, out):
    monkeypatch.setenv("KAPTEYN_MAX_TERMS", "abc")
    assert cli.main(["solve", "--d", "1", "--out", str(out)]) == 2
    assert not out.exists()


def test_env_max_terms_sets_the_cap(monkeypatch, out):
    monkeypatch.setenv("KAPTEYN_MAX_TERMS", "5000")
    assert cli.main(["solve", "--d", "1", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"]["max_terms"] == 5000


def test_unconverged_solve_exits_3_and_writes_the_report(monkeypatch, out):
    # D = 1 needs 418 terms for F1 and F2
    monkeypatch.setenv("KAPTEYN_MAX_TERMS", "300")
    assert cli.main(["solve", "--d", "1", "--format", "json", "--out", str(out)]) == 3
    doc = json.loads(out.read_text())
    assert doc["results"]["converged"] is False
    assert doc["results"]["terms_used"] == [300, 300, 300]


@pytest.mark.parametrize("d,reason", [
    # no cap helps: J_60 is subnormal and cosh(60 ln C) overflows at the
    # left bracket end (the last digits of the partial sum follow numpy's cosh)
    ("8e10", re.escape("MaxTermsExceeded: term n=60 of F(6.805279174576276e-06) overflowed "
                       "(J_n > 0, cosh(n ln C) = inf) with the partial sum 1.61227")
             + r"\d*" + re.escape(" below 2.000000000025; raising max_terms will not help")),
    ("1e-5", re.escape("MaxTermsExceeded: could not certify the left bracket endpoint within "
                       "max_terms=200000 at D=1e-05; raise max_terms")),
    # 2(D + 1) overflows here; k = D/(2(D + 1)) is formed without it
    ("1.7976931348623157e308",
     re.escape("NoBracket: F(1.2499999999999999e-06) certified below 2.0 at "
               "D=1.7976931348623157e+308: no sign change on the bracket, contradicting "
               "the bound that places the root inside")),
])
def test_failed_solve_exits_3_and_names_the_limit(d, reason, out, capsys):
    assert cli.main(["solve", "--d", d, "--out", str(out)]) == 3
    assert re.fullmatch(re.escape(f"numerical failure at D={float(d)}: ") + reason + "\n",
                        capsys.readouterr().err)
    assert not out.exists()


def test_non_finite_result_exits_3_and_names_the_quantity(out, capsys):
    # a * a overflows, and C2, which scales like a^2, is -inf
    reason = "NonFinite: C2 = -inf is not finite at D=1.0, a=1e+200"
    assert cli.main(["solve", "--d", "1", "--a", "1e200", "--format", "json",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numerical failure at D=1.0: {reason}\n"
    assert not out.exists()
    argv = ["sweep", "--d-min", "1", "--d-max", "2", "--points", "2", "--a", "1e200",
            "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 3
    rows = json.loads(out.read_text())["results"]
    assert rows[0]["error"] == reason
    assert rows[1]["error"].startswith("NonFinite: C2 = -inf")


def test_identity_at_the_term_cap_exits_3(out):
    # the trig sums walk to the cap of 10 terms without meeting abs_tol
    assert cli.main(["identity", "--eps", "0.9", "--max-terms", "10", "--out", str(out)]) == 3


def test_verify_failure_exits_1(monkeypatch, out):
    passed = {"passed": True}
    report = {"results": {"closed_form_exactness": {"passed": False, "max_error": 1.0}},
              "residuals": passed, "bounds": passed, "identity_battery": passed,
              "c2_adjudication": passed, "runtime_ms": 0}
    monkeypatch.setattr(cli, "run_verification", lambda trunc: report)
    assert cli.main(["verify", "--format", "json", "--out", str(out)]) == 1
    assert json.loads(out.read_text()) == report


def test_sweep_with_a_failed_row_exits_3_and_writes_every_row(out):
    # with 10 terms no row converges: at D = 0.5 the bracket is not
    # certified, and the D = 1.25 and D = 2 rows print a C that is 0.067 and
    # 0.044 off, with the reason in their error column
    argv = ["sweep", "--d-min", "0.5", "--d-max", "2", "--points", "3",
            "--max-terms", "10", "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 3
    rows = json.loads(out.read_text())["results"]
    assert [row["D"] for row in rows] == [0.5, 1.25, 2.0]
    assert all(row["error"].startswith("MaxTermsExceeded") for row in rows)
    assert rows[0]["C_numeric"] is None
    assert rows[1]["abs_diff"] > 0.06


def test_sweep_exits_0_when_every_row_converges(out):
    argv = ["sweep", "--d-min", "0.5", "--d-max", "2", "--points", "3", "--out", str(out)]
    assert cli.main(argv) == 0
    assert len(out.read_text().splitlines()) == 4


@pytest.mark.parametrize("d", ["1", "0.05"])
def test_solve_json_is_byte_stable(d, out):
    first, second = _runs(["solve", "--d", d], out)
    assert first == second


def test_verify_json_is_byte_stable(verify_runs):
    first, second = verify_runs
    assert first == second
    assert '"runtime_ms": 0' in first


def test_verify_report_config_block(verify_runs):
    # the seven keys in their order, with the package's fixed values
    assert list(json.loads(verify_runs[0])["config"].items()) == [
        ("abs_tol", 1e-12), ("max_terms", 200000), ("safety_margin", 1e-6),
        ("rel_tol", 1e-13), ("crossover_order", 2000), ("max_order", 200000),
        ("root_tol", 1e-12)]


def test_verification_passed_reads_every_part_of_a_real_report(verify_runs):
    report = json.loads(verify_runs[0])
    assert verification_passed(report)
    parts = [("results", name) for name in report["results"]]
    parts += [(name,) for name, val in report.items()
              if isinstance(val, dict) and "passed" in val]
    assert len(parts) == len(report["results"]) + 4
    for path in parts:
        broken = copy.deepcopy(report)
        part = broken
        for key in path:
            part = part[key]
        part["passed"] = False
        assert not verification_passed(broken), path
