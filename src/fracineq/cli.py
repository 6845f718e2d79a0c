"""Command-line front end.

Exit codes: 0 all checks passed, 1 some certificate failed, 2 usage error,
3 parameter/hypothesis validation error, 4 internal numeric error.
"""

from __future__ import annotations

import argparse
import itertools
import sys

import numpy as np

from .corpus import CorpusSpec, generate, sharpness_search
from .diffusion import DiffusionProblem, run as run_diffusion
from .errors import (
    ConvergenceError,
    DomainError,
    EvalError,
    FracineqError,
    HypothesisError,
    NumericError,
    ParamError,
    ParseError,
    SolveError,
)
from .expressions import eval_expr, parse_expr
from .grids import GridFn, uniform_grid
from .inequalities import Family, InequalityCase, sweep, validate_case
from .operators import (
    caputo_derivative,
    hadamard_derivative,
    hadamard_integral,
    right_rl_derivative,
    rl_derivative,
    rl_integral,
)
from .report import (
    certificate_row,
    emit_csv,
    emit_payload_json,
    emit_samples_csv,
    format_float,
    rfc3339_now,
    sweep_rows,
)

_OPERATORS = {
    "rl-integral": rl_integral,
    "rl-derivative": rl_derivative,
    "caputo": caputo_derivative,
    "right-rl-derivative": right_rl_derivative,
    "hadamard-integral": hadamard_integral,
    "hadamard-derivative": hadamard_derivative,
}

_CASE_FLAGS = (
    # (flag, case field)
    ("alpha", "alpha"),
    ("beta", "beta"),
    ("p", "p"),
    ("q", "q"),
    ("r", "r"),
    ("s", "s"),
    ("delta", "delta"),
    ("gamma_w", "gamma"),
    ("c", "c"),
    ("d", "d"),
    ("e", "e"),
    ("theta", "theta"),
)


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracineq",
        description="Fractional operators and inequality certificates on an interval.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def add_interval(p, with_n=True):
        p.add_argument("--a", type=float, required=True, help="left endpoint")
        p.add_argument("--b", type=float, required=True, help="right endpoint")
        if with_n:
            p.add_argument("--n", type=int, default=1024, help="number of subintervals")

    def add_output(p, default="json"):
        p.add_argument("--out", choices=("json", "csv"), default=default)
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit generated_at (for byte-identical output)")

    ver = sub.add_parser("verify", help="evaluate an inequality family over a corpus")
    ver.add_argument("--family", required=True,
                     choices=sorted(f.value for f in Family))
    for flag, _field in _CASE_FLAGS:
        ver.add_argument(f"--{flag.replace('_', '-')}", type=_float_list,
                         default=None, help="value or comma list (lattice axis)")
    add_interval(ver)
    ver.add_argument("--corpus", required=True,
                     help='powers:MU[,MU...] | poly:DEG,COUNT,SEED | expr:"TEXT[;TEXT...]"')
    ver.add_argument("--tol", type=float, default=None,
                     help="fixed disc_tol overriding the Richardson policy")
    add_output(ver)

    op = sub.add_parser("op", help="apply one fractional operator to an expression")
    op.add_argument("--operator", required=True, choices=sorted(_OPERATORS))
    op.add_argument("--alpha", type=float, required=True)
    op.add_argument("--expr", required=True)
    add_interval(op)
    add_output(op)

    sh = sub.add_parser("sharpness", help="search for the ratio-maximizing function")
    sh.add_argument("--family", required=True,
                    choices=sorted(f.value for f in Family))
    for flag, _field in _CASE_FLAGS:
        sh.add_argument(f"--{flag.replace('_', '-')}", type=float, default=None)
    add_interval(sh, with_n=False)
    sh.add_argument("--n", type=int, default=256)
    sh.add_argument("--budget", type=int, default=500)
    sh.add_argument("--seed", type=int, default=0)
    sh.add_argument("--degree", type=int, default=4)
    add_output(sh)

    conv = sub.add_parser("converge", help="self-convergence of one operator on a grid ladder")
    conv.add_argument("--operator", required=True, choices=sorted(_OPERATORS))
    conv.add_argument("--alpha", type=float, required=True)
    conv.add_argument("--expr", required=True)
    add_interval(conv, with_n=False)
    conv.add_argument("--n", type=_int_list, required=True,
                      help="comma-separated grid ladder, e.g. 256,512,1024")
    add_output(conv)

    diff = sub.add_parser("diffuse", help="run the fractional diffusion simulator")
    diff.add_argument("--alpha", type=float, required=True)
    add_interval(diff)
    diff.add_argument("--T", type=float, required=True)
    diff.add_argument("--dt", type=float, required=True)
    diff.add_argument("--u0", default=None,
                      help="initial profile expression in t (default: t - a)")
    add_output(diff, default="csv")

    return parser


def _parse_corpus(text: str, grid) -> CorpusSpec:
    kind, _, rest = text.partition(":")
    if kind == "powers":
        try:
            mus = [float(v) for v in rest.split(",") if v]
        except ValueError:
            raise ParamError(f"powers corpus needs comma-separated numbers (got {rest!r})")
        if not mus:
            raise ParamError("powers corpus needs at least one exponent")
        return CorpusSpec.powers(grid, mus)
    if kind == "poly":
        try:
            degree, count, seed = (int(v) for v in rest.split(","))
        except ValueError:
            raise ParamError(f"poly corpus needs integers DEG,COUNT,SEED (got {rest!r})")
        if degree < 0 or count < 1 or seed < 0:
            raise ParamError(f"poly corpus needs DEG >= 0, COUNT >= 1 and SEED >= 0 "
                             f"(got {rest!r})")
        return CorpusSpec.polynomials(grid, degree, count, seed)
    if kind == "expr":
        texts = [part for part in rest.split(";") if part.strip()]
        if not texts:
            raise ParamError("expr corpus needs at least one expression")
        return CorpusSpec.expressions(grid, texts)
    raise ParamError(f"unknown corpus kind {kind!r} "
                     "(expected powers:..., poly:..., or expr:...)")


def _build_cases(args) -> list[InequalityCase]:
    family = Family(args.family)
    axes = []
    names = []
    for flag, field_name in _CASE_FLAGS:
        values = getattr(args, flag)
        if values is not None:
            axes.append(values)
            names.append(field_name)
    if "alpha" not in names:
        raise ParamError(f"{family.value}: flag --alpha is required")
    cases = []
    for combo in itertools.product(*axes):
        kwargs = dict(zip(names, combo))
        cases.append(validate_case(InequalityCase(
            family=family, a=args.a, b=args.b, **kwargs)))
    return cases


def _cmd_verify(args, command: str, stamp: str | None) -> int:
    cases = _build_cases(args)
    grid = uniform_grid(args.a, args.b, args.n)
    corpus = generate(_parse_corpus(args.corpus, grid))
    if args.out != "json":
        raise ParamError("verify reports are JSON (use --out json)")
    cells = sweep(Family(args.family), cases, corpus, disc_tol=args.tol)
    print(emit_payload_json(sweep_rows(cells), command, stamp))
    all_ok = all(c.certificate is not None and c.certificate.passed for c in cells)
    return 0 if all_ok else 1


def _operator_axis(name: str, u: GridFn, out: GridFn) -> np.ndarray:
    if name.startswith("hadamard"):
        return u.grid.a * np.exp(out.grid.nodes)
    return out.grid.nodes


def _cmd_op(args, command: str, stamp: str | None) -> int:
    grid = uniform_grid(args.a, args.b, args.n)
    u = GridFn(grid, eval_expr(parse_expr(args.expr), grid.nodes), name=args.expr)
    out = _OPERATORS[args.operator](u, args.alpha)
    ts = _operator_axis(args.operator, u, out)
    if args.out == "csv":
        sys.stdout.write(emit_samples_csv(ts, out.samples))
    else:
        rows = [{"t": float(t), "value": float(v)} for t, v in zip(ts, out.samples)]
        print(emit_payload_json(rows, command, stamp))
    return 0


def _cmd_sharpness(args, command: str, stamp: str | None) -> int:
    family = Family(args.family)
    kwargs = {field_name: getattr(args, flag) for flag, field_name in _CASE_FLAGS
              if getattr(args, flag) is not None}
    if "alpha" not in kwargs:
        raise ParamError(f"{family.value}: flag --alpha is required")
    case = InequalityCase(family=family, a=args.a, b=args.b, **kwargs)
    result = sharpness_search(case, budget=args.budget, seed=args.seed,
                              degree=args.degree, grid_n=args.n)
    rows = [{"best": certificate_row(result.certificate),
             "coefficients": list(result.coefficients)}]
    print(emit_payload_json(rows, command, stamp))
    return 0 if result.certificate.passed else 1


def _cmd_converge(args, command: str, stamp: str | None) -> int:
    ladder = args.n
    if len(ladder) < 2:
        raise ParamError("converge needs at least two grid sizes")
    ast = parse_expr(args.expr)
    outputs = []
    for n in ladder:
        grid = uniform_grid(args.a, args.b, n)
        u = GridFn(grid, eval_expr(ast, grid.nodes), name=args.expr)
        outputs.append(_OPERATORS[args.operator](u, args.alpha))
    diffs = []
    for coarse, fine in zip(outputs, outputs[1:]):
        interp = np.interp(coarse.grid.nodes, fine.grid.nodes, fine.samples)
        diffs.append(float(np.max(np.abs(interp - coarse.samples))))
    rows = []
    for idx, n in enumerate(ladder[:-1]):
        order = None
        if idx > 0 and diffs[idx] > 0.0 and diffs[idx - 1] > 0.0:
            order = float(np.log(diffs[idx - 1] / diffs[idx])
                          / np.log(ladder[idx + 1] / ladder[idx]))
        rows.append({"n": int(n), "sup_diff": diffs[idx], "order": order})
    if args.out == "csv":
        lines = ["n,sup_diff,order"]
        for row in rows:
            order = "" if row["order"] is None else format_float(row["order"])
            lines.append(f"{row['n']},{format_float(row['sup_diff'])},{order}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        print(emit_payload_json(rows, command, stamp))
    return 0


def _cmd_diffuse(args, command: str, stamp: str | None) -> int:
    grid = uniform_grid(args.a, args.b, args.n)
    if args.u0 is None:
        samples = grid.nodes - grid.a
        name = "t - a"
    else:
        samples = eval_expr(parse_expr(args.u0), grid.nodes)
        name = args.u0
        if abs(samples[0]) <= 1e-12:
            samples = samples.copy()
            samples[0] = 0.0
    problem = DiffusionProblem(grid, args.alpha, GridFn(grid, samples, name=name),
                               T=args.T, dt=args.dt)
    trace = run_diffusion(problem)
    if args.out == "csv":
        sys.stdout.write(emit_csv(trace))
    else:
        rows = [{"t": float(t), "energy": float(e),
                 "bound": float(trace.energy[0] * np.exp(-2.0 * trace.lam * t))}
                for t, e in zip(trace.times, trace.energy)]
        print(emit_payload_json(rows, command, stamp))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = " ".join(["fracineq"] + argv)
    stamp = None if args.no_timestamp else rfc3339_now()
    handlers = {
        "verify": _cmd_verify,
        "op": _cmd_op,
        "sharpness": _cmd_sharpness,
        "converge": _cmd_converge,
        "diffuse": _cmd_diffuse,
    }
    try:
        return handlers[args.cmd](args, command, stamp)
    except (ParamError, DomainError, HypothesisError, ParseError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, SolveError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    except FracineqError as exc:  # pragma: no cover
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())
