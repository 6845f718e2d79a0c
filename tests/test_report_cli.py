import argparse
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fracineq import (
    ConvergenceError,
    DomainError,
    EvalError,
    Family,
    HypothesisError,
    InequalityCase,
    NumericError,
    ParamError,
    ParseError,
    SizeError,
    SolveError,
    SweepCell,
    evaluate_sides,
    sharpness_search,
    sweep,
    uniform_grid,
    GridFn,
)
from fracineq import cli, operators
from fracineq.cli import main
from fracineq.operators import OPERATOR_KINDS, OPERATORS
from fracineq.expressions import MAX_DEPTH
from fracineq.report import (certificate_row, emit_csv, emit_payload_json, format_float,
                             sweep_rows)

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
    text = emit_payload_json([], "cmd", generated_at=None)
    parsed = json.loads(text)
    assert parsed == {"version": "0.1.0", "command": "cmd", "results": []}


def test_emit_json_key_order_and_roundtrip():
    cert = sample_certificate()
    text = emit_payload_json([certificate_row(cert)], "cmd",
                             generated_at="2026-01-01T00:00:00+00:00")
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
    args = cli.build_parser().parse_args(["diffuse", "--alpha", "0.75", "--a", "0",
                                          "--b", "1", "--n", "16", "--T", "0.3",
                                          "--dt", "0.1"])
    rows, code = cli._cmd_diffuse(args)
    assert code == 0
    text = emit_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "t,energy,bound"
    assert len(lines) == 6 and lines[-1] == ""  # header + 4 rows + trailing LF
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert first[1] == first[2]  # t=0: energy == bound == I(0)
    for line in lines[1:-1]:
        values = [float(v) for v in line.split(",")]
        assert all(np.isfinite(values))
    # the header is the row keys, an int stays an int and None is an empty cell
    assert emit_csv([{"n": 8, "sup_diff": 0.5, "order": None},
                     {"n": 16, "sup_diff": 0.25, "order": 1.0}]) == \
        "n,sup_diff,order\n8,0.5,\n16,0.25,1\n"
    assert emit_csv([]) == ""


def _emissions(rows):
    return emit_payload_json(rows, "cmd"), emit_csv(rows)


def test_rows_sharing_one_params_dict_emit_the_bytes_of_distinct_dicts():
    grid = uniform_grid(0.0, 1.0, 64)
    corpus = [GridFn(grid, k * grid.nodes, name=f"{k}t") for k in (1.0, 2.0, 3.0)]
    cases = [InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=alpha, p=2.0)
             for alpha in (0.9, 1.0)]
    cells = sweep(Family.POINCARE_SOBOLEV, cases, corpus)
    shared = sweep_rows(cells)
    assert shared[0]["params"] is shared[2]["params"] is not shared[3]["params"]
    distinct = [certificate_row(cell.certificate) for cell in cells]
    assert shared == distinct
    assert _emissions(shared) == _emissions(distinct)


def test_a_non_finite_float_is_refused_in_a_slot_and_in_a_nested_object():
    # rhs = 0 and ratio = inf: the float slot of a row
    cert = replace(sample_certificate(), rhs=0.0, ratio=math.inf)
    nested = dict(certificate_row(sample_certificate()))
    nested["params"] = dict(nested["params"], p=math.nan)
    for row, value in ((certificate_row(cert), "inf"), (nested, "nan"),
                       ({"x": 1.0, "y": -math.inf}, "-inf"),
                       ({"x": np.float64(math.nan)}, "nan"),
                       ({"x": [0.5, {"y": math.inf}]}, "inf")):
        for emit in (lambda: emit_payload_json([row], "cmd"), lambda: emit_csv([row])):
            with pytest.raises(NumericError) as raised:
                emit()
            assert str(raised.value) == f"cannot serialize non-finite float {value}"


def test_values_render_by_their_type():
    row = {"zero": 0.0, "minus_zero": -0.0, "np_float": np.float64(0.1), "float": 0.1,
           "np_int": np.int64(-3), "int": 7, "bool": False, "none": None,
           "nested": {"minus_zero": -0.0, "np_float": np.float64(-0.0), "flag": True}}
    assert emit_payload_json([row], "cmd").endswith(
        '"results":[{"zero":0,"minus_zero":-0,"np_float":0.10000000000000001,'
        '"float":0.10000000000000001,"np_int":-3,"int":7,"bool":false,"none":null,'
        '"nested":{"minus_zero":-0,"np_float":-0,"flag":true}}]}')
    assert emit_csv([row]).splitlines()[1].startswith("0,-0,0.10000000000000001,")


def test_equal_objects_are_rendered_each_as_itself():
    # 0.0 == -0.0, so cases and params that differ only in the sign of a zero are
    # equal: each row must still render its own
    plus = InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.9, p=2.0)
    minus = InequalityCase(Family.POINCARE_SOBOLEV, a=-0.0, b=1.0, alpha=0.9, p=2.0)
    assert plus == minus and plus.params() == minus.params()
    cells = [SweepCell(case, name, None, error="e") for case in (plus, minus, plus)
             for name in ("f", "g")]
    rows = sweep_rows(cells)
    assert rows[0]["params"] is rows[1]["params"]
    assert rows[1]["params"] is not rows[2]["params"]
    for text in _emissions(rows):
        assert [part.split(",")[0] for part in text.split('"a":')[1:]] == \
            ["0", "0", "-0", "-0", "0", "0"]


def test_an_emission_keeps_no_text_of_the_rows_of_an_array():
    # only a nested object's text is kept for reuse: an emission of flat rows
    # peaks at the row texts, their join and the output, about 2.7 times the
    # output here, and 4.5 times when every row's text is kept as well
    rows = [{"t": t, "energy": e, "bound": b}
            for t, e, b in np.random.default_rng(0).random((20000, 3)).tolist()]
    tracemalloc.start()
    try:
        text = emit_payload_json(rows, "cmd")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * len(text)


# --- CLI contract ---------------------------------------------------------------

def test_cli_deterministic_output():
    argv = ["verify", "--family", "hardy", "--alpha", "0.9", "--p", "2",
            "--a", "1", "--b", "2", "--n", "128", "--corpus", "poly:3,4,21",
            "--no-timestamp"]
    code1, out1 = run_cli(argv)
    code2, out2 = run_cli(argv)
    assert code1 == code2 == 0
    assert out1 == out2


#: n = 1024 and alpha < 1: every operator is applied by FFT, on the fine grid
#: and on the coarse one of the Richardson pass; one payload per line
FFT_ARGVS = [
    ["verify", "--family", "hadamard-hardy", "--alpha", "0.6,0.75,0.9", "--p", "2,3",
     "--a", "1", "--b", "2", "--n", "1024", "--corpus", "poly:3,3,7", "--out", "json",
     "--no-timestamp"],
    ["verify", "--family", "seq-hardy", "--alpha", "0.8,0.9", "--beta", "0.3,0.6", "--p", "2",
     "--a", "1", "--b", "2", "--n", "1024", "--corpus", "poly:3,3,7", "--out", "json",
     "--no-timestamp"],
]


def test_cli_verify_fft_path_matches_fixture():
    expected = (FIXTURES / "verify_fft.json").read_text().splitlines(keepends=True)
    assert len(expected) == len(FFT_ARGVS)
    for argv, line in zip(FFT_ARGVS, expected):
        assert run_cli(argv) == (0, line)


#: runs of cases that share their orders, one payload per line: sobolev-beta
#: over p with its order-beta map (beta = 0 included), and
#: seq-gagliardo-nirenberg over s
RUN_ARGVS = [
    ["verify", "--family", "sobolev-beta", "--alpha", "0.85,0.9", "--beta", "0,0.1",
     "--p", "4,6", "--a", "1", "--b", "2", "--n", "1024", "--corpus", "poly:3,3,7",
     "--out", "json", "--no-timestamp"],
    ["verify", "--family", "seq-gagliardo-nirenberg", "--alpha", "0.4,0.5", "--beta", "0.8",
     "--p", "2", "--q", "3", "--s", "0.25,0.5,0.75", "--a", "1", "--b", "2", "--n", "1024",
     "--corpus", "poly:3,3,7", "--out", "json", "--no-timestamp"],
]


def test_cli_module_runs_as_a_script():
    # python -m fracineq.cli is the console script: the same bytes and exit codes
    src = str(Path(cli.__file__).parent.parent)

    def run(argv):
        return subprocess.run([sys.executable, "-m", "fracineq.cli", *argv],
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=src))

    argv = ["verify", "--family", "hardy", "--alpha", "1", "--p", "2", "--a", "1", "--b", "2",
            "--n", "256", "--corpus", "poly:3,3,7", "--out", "json", "--no-timestamp"]
    done = run(argv)
    assert (done.returncode, done.stdout) == (0, (FIXTURES / "verify_hardy.json").read_text())
    done = run(argv + ["--out", "csv"])  # verify renders JSON only
    assert (done.returncode, done.stdout) == (2, "")


def test_cli_verify_runs_match_fixture():
    expected = (FIXTURES / "verify_runs.json").read_text().splitlines(keepends=True)
    assert len(expected) == len(RUN_ARGVS)
    for argv, line in zip(RUN_ARGVS, expected):
        assert run_cli(argv) == (0, line)


#: sharpness searches, one payload per line: uncertainty at p = 2, a product of
#: two norm powers, and gagliardo-nirenberg at p = q = 2, whose L^2 norm of u
#: appears on both sides
SHARPNESS_ARGVS = [
    ["sharpness", "--family", "uncertainty", "--alpha", "0.6", "--p", "2", "--a", "1", "--b", "2",
     "--no-timestamp"],
    ["sharpness", "--family", "gagliardo-nirenberg", "--alpha", "0.9", "--p", "2", "--q", "2",
     "--s", "0.5", "--a", "1", "--b", "2", "--no-timestamp"],
]


def test_cli_sharpness_matches_fixture():
    expected = (FIXTURES / "sharpness_cli.json").read_text().splitlines(keepends=True)
    assert len(expected) == len(SHARPNESS_ARGVS)
    for argv, line in zip(SHARPNESS_ARGVS, expected):
        assert run_cli(argv) == (0, line)


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
    # the exact optimum over the basis: on the grid, u = t - a is not quite the best
    assert best["ratio"] >= 1.0 and best["pass"] is True
    case = InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=1.0, p=2.0)
    result = sharpness_search(case, budget=5, seed=1)
    assert parsed["results"] == [{"best": certificate_row(result.certificate),
                                  "coefficients": list(result.coefficients)}]


def test_cli_converge_reports_order():
    code, out = run_cli(["converge", "--operator", "caputo", "--alpha", "0.5",
                         "--expr", "t^2", "--a", "0", "--b", "1",
                         "--n", "128,256,512", "--no-timestamp"])
    assert code == 0
    parsed = json.loads(out)
    orders = [row["order"] for row in parsed["results"]]
    assert orders[0] is None
    assert orders[1] == pytest.approx(1.5, abs=0.2)


@pytest.mark.parametrize("argv, header", [
    (["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "t^2",
      "--a", "0", "--b", "1", "--n", "16"], "t,value"),
    # the t column of a Hadamard operator is a e^sigma on the companion grid
    (["op", "--operator", "hadamard-integral", "--alpha", "0.6", "--expr", "log(t)",
      "--a", "1", "--b", "3", "--n", "16"], "t,value"),
    (["converge", "--operator", "caputo", "--alpha", "0.5", "--expr", "t^2",
      "--a", "0", "--b", "1", "--n", "128,256,512"], "n,sup_diff,order"),
    (["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1", "--n", "16", "--T", "0.01",
      "--dt", "0.002"], "t,energy,bound"),
], ids=["op", "op-hadamard", "converge", "diffuse"])
def test_cli_csv_matches_json(argv, header):
    code, out = run_cli(argv + ["--out", "csv", "--no-timestamp"])
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == header and lines[-1] == ""
    code, text = run_cli(argv + ["--out", "json", "--no-timestamp"])
    assert code == 0
    rows = json.loads(text)["results"]
    assert [list(row) for row in rows] == [header.split(",")] * len(rows)
    expect = [",".join("" if v is None else format_float(v) for v in row.values())
              for row in rows]
    assert lines[1:-1] == expect
    if argv[0] == "op":
        ts = [row["t"] for row in rows]
        assert ts[0] == float(argv[argv.index("--a") + 1])
        assert ts[-1] == pytest.approx(float(argv[argv.index("--b") + 1]), rel=1e-14)


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--a", "1", "--b", "2",
     "--n", "16", "--corpus", "powers:1"],
    ["sharpness", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--a", "1",
     "--b", "2", "--n", "16", "--budget", "2"],
])
def test_cli_csv_on_json_only_command_is_usage_error(argv, monkeypatch, capsys):
    # argparse refuses the format before the command computes anything
    monkeypatch.setattr(cli, f"_cmd_{argv[0]}", lambda args: pytest.fail("computed"))
    code, out = run_cli(argv + ["--out", "csv"])
    assert code == 2 and out == ""
    assert "invalid choice: 'csv'" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_cli_converge_non_finite_is_numeric_error(capsys):
    # exp(1000) overflows: the same values that op and --out json refuse
    argv = ["converge", "--operator", "rl-integral", "--alpha", "0.5", "--expr", "exp(t)",
            "--a", "0", "--b", "1000", "--n", "8,16", "--no-timestamp"]
    for out_format in ("csv", "json"):
        code, out = run_cli(argv + ["--out", out_format])
        assert code == 4 and out == "", out_format
    assert capsys.readouterr().err == (
        "numeric error: expression value overflows or is not a number\n" * 2)


def test_cli_operators_are_the_kinds():
    # op and converge offer exactly the operator table's kinds
    commands = next(action.choices for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
    for name in ("op", "converge"):
        (choices,) = [action.choices for action in commands[name]._actions
                      if action.dest == "operator"]
        assert choices == sorted(OPERATORS)
    assert tuple(OPERATORS) == OPERATOR_KINDS


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,expected", [
    # numpy's default_rng refuses a negative seed
    (["sharpness", "--family", "poincare-sobolev", "--alpha", "0.9", "--p", "2", "--a", "0",
      "--b", "1", "--budget", "5", "--seed", "-1"], 3),
    # 745 GiB of polynomial coefficients
    (["sharpness", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--a", "1", "--b", "2",
      "--budget", "3", "--degree", "100000000000"], 3),
    (["verify", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--a", "1", "--b", "2",
      "--n", "16", "--corpus", "poly:100000000000,1,1"], 3),
    # constants beyond the float range: b^gamma, and a kernel moment that rounds to 0
    (["verify", "--family", "weighted-hardy", "--alpha", "0.9", "--p", "2", "--gamma-w",
      "1e300", "--a", "1", "--b", "2", "--n", "16", "--corpus", "powers:1"], 4),
    (["verify", "--family", "sobolev-beta", "--alpha", "0.6666666666666667", "--beta", "0",
      "--p", "1.5", "--a", "0", "--b", "1", "--n", "16", "--corpus", "powers:1"], 4),
    # the stiffness overflows; the decay rate overflows or underflows
    (["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1e-300", "--n", "16", "--T", "1",
      "--dt", "0.5"], 4),
    (["diffuse", "--alpha", "1", "--a", "0", "--b", "1e-300", "--n", "8", "--T", "1",
      "--dt", "0.5"], 4),
    (["diffuse", "--alpha", "0.75", "--a=-1e300", "--b", "1e300", "--n", "16", "--T", "1",
      "--dt", "0.5"], 4),
])
def test_cli_former_tracebacks_exit_with_their_code(argv, expected, capsys):
    assert run_cli(argv) == (expected, "")
    assert "Traceback" not in capsys.readouterr().err


HARDY_16 = ["verify", "--family", "hardy", "--alpha", "0.9", "--a", "1", "--b", "2",
            "--n", "16"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv,expected,message", [
    (HARDY_16 + ["--p", "2", "--corpus", "powers:nan"], 3,
     "error: power corpus needs finite exponents (got (nan,))"),
    (HARDY_16 + ["--p", "2", "--corpus", "powers:1,inf"], 3,
     "error: power corpus needs finite exponents (got (1.0, inf))"),
    # the norms overflow: |u|^p and the weight x^(-p)
    (HARDY_16 + ["--p", "1e300", "--corpus", "powers:1"], 4,
     "numeric error: hardy: non-finite certificate values"),
    (["verify", "--family", "poincare-sobolev", "--alpha", "0.9", "--p", "1e300", "--a", "0",
      "--b", "3", "--n", "16", "--corpus", "powers:1"], 4,
     "numeric error: poincare-sobolev: non-finite certificate values"),
    # about 42 GB of samples
    (HARDY_16 + ["--p", "2", "--corpus", "poly:3,100000000,1"], 3,
     "error: polynomial corpus needs count * (n + 1) <= 67125249 (got count=100000000, n=16)"),
    (["sharpness", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--a", "1", "--b", "2",
      "--degree", "63", "--n", "65536", "--budget", "3"], 3,
     "error: sharpness search needs (degree + 1)(n + 1) <= 4194305 (got degree=63, n=65536)"),
    (["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1e-300", "--n", "16", "--T", "1",
      "--dt", "0.5"], 4, "numeric error: stiffness is not finite (h = 6.25e-302)"),
    (["sharpness", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--a", "1", "--b", "2",
      "--budget", "-5"], 3, "error: sharpness search needs budget >= 0 (got -5)"),
    # the operator scale h^-alpha overflows: a grid error, not a failed certificate
    (["verify", "--family", "poincare-sobolev", "--alpha", "0.999", "--p", "2", "--a", "0",
      "--b", "1e-320", "--n", "2", "--corpus", "expr:t;1+t"], 3,
     "error: operator scale h^-0.999 / Gamma(1.001) overflows (h = 5e-321)"),
    (["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "t", "--a", "0", "--b", "inf",
      "--n", "8"], 3, "error: grid requires finite endpoints (got a=0.0, b=inf)"),
    # a stored gamma below 1 that meets the exponent relation within its tolerance:
    # refused as a case, not a failed certificate per function
    (["verify", "--family", "gagliardo-nirenberg", "--alpha", "0.9", "--p", "1", "--q", "2",
      "--s", "0", "--gamma-w", "0.99999999995", "--a", "0", "--b", "1", "--n", "16",
      "--corpus", "powers:1,2"], 3,
     "error: gagliardo-nirenberg: requires gamma >= 1 (got gamma=0.99999999995)"),
    # the initial energy u0^T M u0 of u0 = t on a grid of h = 6.25e148
    (["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1e150", "--n", "16", "--T", "1",
      "--dt", "0.5"], 4, "numeric error: initial energy overflows (h = 6.25e+148)"),
    # corpus samples out of float range, refused by the function's name: 10^400 and
    # (t - a) q with t - a near 1e308
    (["verify", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--a", "1", "--b", "11",
      "--n", "16", "--corpus", "powers:400"], 4,
     "numeric error: pow:mu=400: sample value overflows or is not a number"),
    (["verify", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--a", "1", "--b", "1e308",
      "--n", "16", "--corpus", "poly:3,1,0"], 4,
     "numeric error: poly:seed=0:0: sample value overflows or is not a number"),
    (["verify", "--family=hadamard-hardy", "--a=1", "--b=1e300", "--n=2", "--alpha=0.9",
      "--p=2", "--corpus=powers:1.5"], 4,
     "numeric error: pow:mu=1.5: sample value overflows or is not a number"),
    # a power that overflows is a numeric error, as exp does; an undefined one is refused
    (["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "t^200", "--a", "0", "--b",
      "100", "--n", "16"], 4, "numeric error: expression value overflows or is not a number"),
    (["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "exp(10*t)", "--a", "0",
      "--b", "100", "--n", "16"], 4,
     "numeric error: expression value overflows or is not a number"),
    (["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "(t-1)^0.5", "--a", "0",
      "--b", "2", "--n", "16"], 3, "error: power is undefined"),
    (["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "0^(t-1)", "--a", "0",
      "--b", "2", "--n", "16"], 3, "error: power is undefined"),
    # operator values out of float range, refused by the operator's name
    (["converge", "--operator", "hadamard-integral", "--alpha", "0.5", "--expr", "t", "--a",
      "1", "--b", "1e308", "--n", "16,32"], 4,
     "numeric error: hadamard-integral: operator value overflows or is not a number"),
    (["op", "--operator", "hadamard-integral", "--alpha", "0.5", "--expr", "t", "--a", "1",
      "--b", "1e308", "--n", "16"], 4,
     "numeric error: hadamard-integral: operator value overflows or is not a number"),
])
def test_cli_refusals_exit_cleanly(argv, expected, message, capsys):
    # one line on stderr: no traceback, no numpy warning, no report
    assert run_cli(argv) == (expected, "")
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["verify", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--a", "1", "--b", "2",
     "--n", "16", "--corpus", "expr:0*exp(1000*t)"],
    ["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "0*exp(1000*t)", "--a", "0",
     "--b", "1", "--n", "16"],
    ["op", "--operator", "hadamard-derivative", "--alpha", "1", "--expr", "exp(1000*t)",
     "--a", "1", "--b", "2", "--n", "16", "--out", "csv"],
    ["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1", "--n", "16", "--T", "1", "--dt",
     "0.5", "--u0", "0*exp(1000*t)"],
])
def test_cli_non_finite_expression_is_numeric_error(argv, monkeypatch, capsys):
    # refused when sampled: no operator is built and numpy prints no warning
    monkeypatch.setattr(operators, "operator_matrix", lambda *args: pytest.fail("built"))
    assert run_cli(argv) == (4, "")
    assert capsys.readouterr().err == (
        "numeric error: expression value overflows or is not a number\n")


@pytest.mark.parametrize("error,expected", [
    (DomainError("x"), 3), (SizeError("x"), 3), (ParamError("x"), 3), (HypothesisError("x"), 3),
    (ParseError("x", 0), 3), (EvalError("x"), 3), (ConvergenceError("x"), 4),
    (SolveError("x"), 4), (NumericError("x"), 4),
])
def test_cli_exit_code_is_the_error_class_code(error, expected, monkeypatch, capsys):
    def fail(args):
        raise error
    monkeypatch.setattr(cli, "_cmd_op", fail)
    code, out = run_cli(["op", "--operator", "caputo", "--alpha", "0.5", "--expr", "t",
                         "--a", "0", "--b", "1"])
    assert (code, out) == (expected, "")
    prefix = "error" if expected == 3 else "numeric error"
    assert capsys.readouterr().err == f"{prefix}: {error}\n"


def test_cli_diffuse_ends_at_T_for_a_decimal_multiple_of_dt():
    # 0.031309 / 1e-6 rounds to 31308.999999999996; the run still takes 31,309 steps
    code, out = run_cli(["diffuse", "--alpha", "0.75", "--a", "0", "--b", "1", "--n", "16",
                         "--T", "0.031309", "--dt", "1e-6", "--no-timestamp"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1 + 31310
    assert abs(float(lines[-1].split(",")[0]) - 0.031309) <= 1e-12


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


@pytest.mark.parametrize("argv", [
    ["op", "--expr", "(" * 3000 + "t" + ")" * 3000],
    ["op", "--expr=" + "-" * 3000 + "t"],
    ["op", "--expr", "2^" * 3000 + "t"],
    ["verify", "--family", "hardy", "--alpha", "0.9", "--p", "2", "--n", "16",
     "--corpus", "expr:" + "sin(" * 3000 + "t" + ")" * 3000],
    # flat, but its left-deep tree is 199,999 levels deep
    ["op", "--expr", "+".join(["t"] * 200_000)],
], ids=["parens", "minus", "power", "calls", "sum"])
def test_cli_deep_expression_is_param_error(argv, capsys):
    if argv[0] == "op":
        argv = argv + ["--operator", "caputo", "--alpha", "0.5", "--n", "16"]
    code, out = run_cli(argv + ["--a", "1", "--b", "2"])
    assert code == 3 and out == ""
    err = capsys.readouterr().err
    assert f"nested deeper than {MAX_DEPTH} levels at offset" in err
    assert "Traceback" not in err
