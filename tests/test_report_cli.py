import io
import json
import math
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from fracineq import (
    Certificate,
    EnergyTrace,
    Family,
    InequalityCase,
    ParamError,
    evaluate_sides,
    uniform_grid,
    GridFn,
)
from fracineq import cli
from fracineq.cli import main
from fracineq.operators import OPERATOR_KINDS
from fracineq.report import emit_csv, emit_json, format_float

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def sample_certificate(disc_tol=None):
    g = uniform_grid(0.0, 1.0, 64)
    u = GridFn(g, g.nodes.copy(), name="t")
    return evaluate_sides(
        InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=1.0, p=2.0), u,
        disc_tol)


# --- serialization ------------------------------------------------------------

def test_emit_json_empty_list():
    text = emit_json([], "cmd", generated_at=None)
    parsed = json.loads(text)
    assert parsed == {"version": "0.1.0", "command": "cmd", "results": []}


def test_emit_json_key_order_and_roundtrip():
    cert = sample_certificate()
    text = emit_json([cert], "cmd", generated_at="2026-01-01T00:00:00+00:00")
    parsed = json.loads(text)
    assert list(parsed.keys()) == ["version", "command", "generated_at", "results"]
    row = parsed["results"][0]
    assert list(row.keys()) == ["family", "params", "function", "lhs", "constant",
                                "rhs", "ratio", "disc_tol", "pass", "grid_n"]
    # field-for-field round trip at full double precision
    assert row["family"] == cert.case.family.value
    assert float(row["lhs"]) == cert.lhs
    assert float(row["constant"]) == cert.constant
    assert float(row["rhs"]) == cert.rhs
    assert float(row["ratio"]) == cert.ratio
    assert float(row["disc_tol"]) == cert.disc_tol
    assert row["pass"] is cert.passed
    assert row["grid_n"] == cert.grid_n
    assert float(row["params"]["alpha"]) == cert.case.alpha


def test_format_float_is_lossless():
    for x in (1.0 / 3.0, math.pi, 1e-300, 123456789.123456789, -0.1):
        assert float(format_float(x)) == x


def test_emit_csv_shape():
    trace = EnergyTrace(np.array([0.0, 0.1, 0.2, 0.3]),
                        np.array([1.0, 0.8, 0.7, 0.65]), lam=0.5)
    text = emit_csv(trace)
    lines = text.split("\n")
    assert lines[0] == "t,energy,bound"
    assert len(lines) == 6 and lines[-1] == ""  # header + 4 rows + trailing LF
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == float(first[2]) == 1.0  # t=0: energy == bound == I(0)
    for line in lines[1:-1]:
        values = [float(v) for v in line.split(",")]
        assert all(np.isfinite(values))


# --- CLI contract ---------------------------------------------------------------

def test_cli_deterministic_output():
    argv = ["verify", "--family", "hardy", "--alpha", "0.9", "--p", "2",
            "--a", "1", "--b", "2", "--n", "128", "--corpus", "poly:3,4,21",
            "--no-timestamp"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_verify_matches_fixture():
    argv = ["verify", "--family", "hardy", "--alpha", "1", "--p", "2",
            "--a", "1", "--b", "2", "--n", "256", "--corpus", "poly:3,3,7",
            "--out", "json", "--no-timestamp"]
    code, out = run_cli(argv)
    assert code == 0
    assert out == (FIXTURES / "verify_hardy.json").read_text()
    parsed = json.loads(out)
    assert len(parsed["results"]) == 3
    assert all(row["pass"] for row in parsed["results"])


def test_cli_diffuse_matches_fixture():
    argv = ["diffuse", "--alpha", "1.0", "--a", "0", "--b", "1", "--n", "32",
            "--T", "0.01", "--dt", "0.002", "--no-timestamp"]
    code, out = run_cli(argv)
    assert code == 0
    assert out == (FIXTURES / "diffuse_alpha1.csv").read_text()
    assert "\r" not in out  # LF endings only


def test_cli_verify_lattice_cross_product():
    code, out = run_cli(["verify", "--family", "poincare-sobolev",
                         "--alpha", "0.8,0.9", "--p", "2,3",
                         "--a", "0", "--b", "1", "--n", "64",
                         "--corpus", "powers:1,2", "--no-timestamp"])
    assert code == 0
    parsed = json.loads(out)
    assert len(parsed["results"]) == 8  # 2 alpha x 2 p x 2 functions
    alphas = [row["params"]["alpha"] for row in parsed["results"]]
    assert alphas == [0.8] * 4 + [0.9] * 4


def test_cli_exit_code_usage_errors():
    code, _ = run_cli(["verify", "--family", "unknownfam", "--a", "0", "--b", "1",
                       "--corpus", "powers:1"])
    assert code == 2
    code, _ = run_cli(["verify", "--family", "hardy", "--definitely-not-a-flag", "1"])
    assert code == 2
    code, _ = run_cli(["not-a-command"])
    assert code == 2


def test_cli_exit_code_param_error():
    code, _ = run_cli(["verify", "--family", "hardy", "--alpha", "1", "--p", "2",
                       "--a", "0", "--b", "1", "--n", "64",
                       "--corpus", "poly:3,3,7"])
    assert code == 3


def test_cli_exit_code_hypothesis_failure_is_report_failure():
    # expression corpus violating the boundary hypothesis: the sweep isolates
    # the error and the run reports failure
    code, out = run_cli(["verify", "--family", "poincare-sobolev",
                         "--alpha", "0.9", "--p", "2", "--a", "0", "--b", "1",
                         "--n", "64", "--corpus", "expr:t + 1",
                         "--no-timestamp"])
    assert code == 1
    parsed = json.loads(out)
    assert "error" in parsed["results"][0]


def test_cli_exit_code_internal_numeric_error(monkeypatch):
    import fracineq.cli as climod
    from fracineq.errors import NumericError

    def boom(*args, **kwargs):
        raise NumericError("synthetic failure")

    monkeypatch.setitem(climod.__dict__, "_cmd_op", boom)
    code, _ = run_cli(["op", "--operator", "caputo", "--alpha", "0.5",
                       "--expr", "t", "--a", "0", "--b", "1"])
    assert code == 4


def test_cli_op_csv_and_json():
    argv = ["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "t",
            "--a", "0", "--b", "1", "--n", "4", "--no-timestamp"]
    code, out = run_cli(argv)
    assert code == 0
    parsed = json.loads(out)
    assert parsed["results"][-1]["value"] == pytest.approx(1.1283791670955126,
                                                           rel=1e-12)
    code, out = run_cli(argv + ["--out", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "t,value"
    assert len(out.splitlines()) == 6


def test_cli_sharpness_reports_probe():
    code, out = run_cli(["sharpness", "--family", "poincare-sobolev",
                         "--alpha", "1", "--p", "2", "--a", "0", "--b", "1",
                         "--budget", "5", "--seed", "1", "--no-timestamp"])
    assert code == 0
    parsed = json.loads(out)
    best = parsed["results"][0]["best"]
    assert best["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert parsed["results"][0]["coefficients"][0] == 1.0


def test_cli_converge_reports_order():
    code, out = run_cli(["converge", "--operator", "caputo", "--alpha", "0.5",
                         "--expr", "t^2", "--a", "0", "--b", "1",
                         "--n", "128,256,512", "--no-timestamp"])
    assert code == 0
    parsed = json.loads(out)
    orders = [row["order"] for row in parsed["results"]]
    assert orders[0] is None
    assert orders[1] == pytest.approx(1.5, abs=0.2)


def test_cli_converge_csv_matches_json():
    argv = ["converge", "--operator", "caputo", "--alpha", "0.5", "--expr", "t^2",
            "--a", "0", "--b", "1", "--n", "128,256,512", "--no-timestamp"]
    code, out = run_cli(argv + ["--out", "csv"])
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "n,sup_diff,order" and lines[-1] == ""
    code, text = run_cli(argv)
    rows = json.loads(text)["results"]
    expect = [f"{row['n']},{format_float(row['sup_diff'])},"
              + ("" if row["order"] is None else format_float(row["order"]))
              for row in rows]
    assert lines[1:-1] == expect


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_cli_converge_non_finite_is_numeric_error(capsys):
    # exp(1000) overflows: the same values that op and --out json refuse
    argv = ["converge", "--operator", "rl-integral", "--alpha", "0.5", "--expr", "exp(t)",
            "--a", "0", "--b", "1000", "--n", "8,16", "--no-timestamp"]
    for out_format in ("csv", "json"):
        code, out = run_cli(argv + ["--out", out_format])
        assert code == 4 and out == "", out_format
    assert "Traceback" not in capsys.readouterr().err


def test_cli_operators_are_the_kinds():
    assert set(cli._OPERATORS) == set(OPERATOR_KINDS)


@pytest.mark.parametrize("argv", [
    # the node array alone would take 7.28 TiB
    ["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "t", "--a", "0", "--b", "1",
     "--n", "1000000000000"],
    # a dense order-1 derivative or diffusion stiffness would take 74.5 GiB
    ["op", "--operator", "caputo", "--alpha", "1", "--expr", "t", "--a", "0", "--b", "1",
     "--n", "100000"],
    ["verify", "--family", "hardy", "--alpha", "1", "--p", "2", "--a", "1", "--b", "2",
     "--n", "100000", "--corpus", "powers:1"],
    ["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1", "--n", "100000", "--T", "1",
     "--dt", "0.5"],
])
def test_cli_oversized_grid_is_param_error(argv, capsys):
    tracemalloc.start()
    try:
        code, out = run_cli(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert "n <=" in err and "Traceback" not in err
    assert peak < 32 * 2**20


def test_cli_diffuse_expression_initial_data():
    code, out = run_cli(["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1",
                         "--n", "32", "--T", "0.01", "--dt", "0.005",
                         "--u0", "sin(pi*t/2)", "--no-timestamp"])
    assert code == 0
    lines = out.splitlines()
    energies = [float(line.split(",")[1]) for line in lines[1:]]
    assert energies == sorted(energies, reverse=True)


def test_cli_timestamp_present_by_default():
    code, out = run_cli(["op", "--operator", "caputo", "--alpha", "0.5",
                         "--expr", "t", "--a", "0", "--b", "1", "--n", "4"])
    assert code == 0
    parsed = json.loads(out)
    assert "generated_at" in parsed


def test_cli_tol_overrides_richardson_policy():
    code, out = run_cli(["verify", "--family", "poincare-sobolev",
                         "--alpha", "0.9", "--p", "2", "--a", "0", "--b", "1",
                         "--n", "64", "--corpus", "powers:1,2",
                         "--tol", "0.5", "--no-timestamp"])
    assert code == 0
    parsed = json.loads(out)
    assert all(row["disc_tol"] == 0.5 for row in parsed["results"])
    # a tolerance that is not a finite number >= 0 is an input error
    for bad in ("nan", "inf", "-1"):
        code, out = run_cli(["verify", "--family", "poincare-sobolev",
                             "--alpha", "0.9", "--p", "2", "--a", "0", "--b", "1",
                             "--n", "64", "--corpus", "powers:1,2",
                             "--tol", bad, "--no-timestamp"])
        assert code == 3 and out == "", bad
    with pytest.raises(ParamError, match="disc_tol"):
        sample_certificate(float("nan"))


def test_cli_missing_alpha_is_param_error():
    code, _ = run_cli(["verify", "--family", "hardy", "--p", "2",
                       "--a", "1", "--b", "2", "--corpus", "powers:1"])
    assert code == 3
    code, _ = run_cli(["sharpness", "--family", "hardy", "--p", "2",
                       "--a", "1", "--b", "2"])
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["verify", "--corpus", "poly:3,x,7"],
    ["verify", "--corpus", "poly:-1,2,7"],
    ["verify", "--corpus", "poly:3,0,7"],
    ["verify", "--corpus", "powers:abc"],
    ["verify", "--corpus", "powers:"],
    ["sharpness", "--degree", "-1", "--budget", "2"],
])
def test_cli_malformed_input_is_param_error(argv):
    code, out = run_cli(argv[:1] + ["--family", "hardy", "--alpha", "0.9", "--p", "2",
                                    "--a", "1", "--b", "2", "--n", "16"] + argv[1:])
    assert code == 3 and out == ""


@pytest.mark.parametrize("argv", [
    ["op", "--operator", "rl-integral", "--alpha", "nan", "--expr", "t", "--a", "0", "--b", "1"],
    ["op", "--operator", "rl-integral", "--alpha", "inf", "--expr", "t", "--a", "0", "--b", "1"],
    ["op", "--operator", "rl-integral", "--alpha", "1e300", "--expr", "t", "--a", "0", "--b", "1"],
    ["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1", "--n", "16", "--dt", "0.01",
     "--T", "inf"],
    ["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1", "--n", "16", "--dt", "1e-10",
     "--T", "1e300"],
])
def test_cli_unrepresentable_order_or_horizon_is_param_error(argv, capsys):
    code, _ = run_cli(argv)
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err
