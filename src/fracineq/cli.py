"""Command-line front end.

Each subcommand handler returns ``(rows, exit_code)``: a list of row dicts
with a fixed key order.  ``main`` renders the rows once, either in the JSON
envelope (``report.emit_payload_json``) or, for the commands whose rows are
flat (op, converge, diffuse), as one CSV table (``report.emit_csv``).

Exit codes: 0 all checks passed, 1 some certificate failed, 2 usage error,
3 parameter/hypothesis validation error, 4 internal numeric error.  Codes 3
and 4 are the ``exit_code`` of the error class raised.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import sys

import numpy as np

from .corpus import CorpusSpec, generate, sharpness_search
from .diffusion import DiffusionProblem, run as run_diffusion
from .errors import FracineqError, ParamError
from .expressions import eval_expr, parse_expr
from .grids import GridFn, uniform_grid
from .inequalities import Family, InequalityCase, constant, sweep, validate_case
from .operators import OPERATORS, log_companion_times
from .report import certificate_row, emit_csv, emit_payload_json, rfc3339_now, sweep_rows

#: case field -> flag destination for every field but the family and the
#: interval; the weight power is --gamma-w
_CASE_FLAGS = {f.name: "gamma_w" if f.name == "gamma" else f.name
               for f in dataclasses.fields(InequalityCase)
               if f.name not in ("family", "a", "b")}


def _list_of(kind: type):
    """argparse type for a comma-separated list of `kind` values."""
    def parse(text: str) -> list:
        try:
            return [kind(part) for part in text.split(",") if part != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {kind.__name__} list: {text!r}")
    return parse


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

    def add_output(p, formats=("json",)):
        # the first format is the default; only flat rows can be CSV
        p.add_argument("--out", choices=formats, default=formats[0])
        p.add_argument("--no-timestamp", action="store_true",
                       help="omit generated_at (for byte-identical output)")

    ver = sub.add_parser("verify", help="evaluate an inequality family over a corpus")
    ver.add_argument("--family", required=True,
                     choices=sorted(f.value for f in Family))
    for flag in _CASE_FLAGS.values():
        ver.add_argument(f"--{flag.replace('_', '-')}", type=_list_of(float),
                         default=None, help="value or comma list (lattice axis)")
    add_interval(ver)
    ver.add_argument("--corpus", required=True,
                     help='powers:MU[,MU...] | poly:DEG,COUNT,SEED | expr:"TEXT[;TEXT...]"')
    ver.add_argument("--tol", type=float, default=None,
                     help="fixed disc_tol overriding the Richardson policy")
    add_output(ver)

    op = sub.add_parser("op", help="apply one fractional operator to an expression")
    op.add_argument("--operator", required=True, choices=sorted(OPERATORS))
    op.add_argument("--alpha", type=float, required=True)
    op.add_argument("--expr", required=True)
    add_interval(op)
    add_output(op, ("json", "csv"))

    sh = sub.add_parser("sharpness", help="search for the ratio-maximizing function")
    sh.add_argument("--family", required=True,
                    choices=sorted(f.value for f in Family))
    for flag in _CASE_FLAGS.values():
        sh.add_argument(f"--{flag.replace('_', '-')}", type=float, default=None)
    add_interval(sh, with_n=False)
    sh.add_argument("--n", type=int, default=256)
    sh.add_argument("--budget", type=int, default=500,
                    help="0 reports u = t - a; any budget >= 1 solves for the best "
                         "ratio over the basis, exactly for L^2 right-hand norms and to a "
                         "local optimum otherwise, and the value has no other effect")
    sh.add_argument("--seed", type=int, default=0,
                    help="must be >= 0; has no effect, as no proposal is random")
    sh.add_argument("--degree", type=int, default=4)
    add_output(sh)

    conv = sub.add_parser("converge", help="self-convergence of one operator on a grid ladder")
    conv.add_argument("--operator", required=True, choices=sorted(OPERATORS))
    conv.add_argument("--alpha", type=float, required=True)
    conv.add_argument("--expr", required=True)
    add_interval(conv, with_n=False)
    conv.add_argument("--n", type=_list_of(int), required=True,
                      help="comma-separated grid ladder, e.g. 256,512,1024")
    add_output(conv, ("json", "csv"))

    diff = sub.add_parser("diffuse", help="run the fractional diffusion simulator")
    diff.add_argument("--alpha", type=float, required=True)
    add_interval(diff)
    diff.add_argument("--T", type=float, required=True)
    diff.add_argument("--dt", type=float, required=True)
    diff.add_argument("--u0", default=None,
                      help="initial profile expression in t (default: t - a)")
    add_output(diff, ("csv", "json"))

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


def _case_fields(args) -> dict:
    """Case fields given on the command line; --alpha is required."""
    given = {field_name: getattr(args, flag) for field_name, flag in _CASE_FLAGS.items()
             if getattr(args, flag) is not None}
    if "alpha" not in given:
        raise ParamError(f"{args.family}: flag --alpha is required")
    return given


def _cmd_verify(args) -> tuple[list[dict], int]:
    family = Family(args.family)
    axes = _case_fields(args)
    cases = [validate_case(InequalityCase(family=family, a=args.a, b=args.b,
                                          **dict(zip(axes, combo))))
             for combo in itertools.product(*axes.values())]
    for case in cases:
        constant(case)  # a constant out of float range stops the run before any cell
    grid = uniform_grid(args.a, args.b, args.n)
    corpus = generate(_parse_corpus(args.corpus, grid))
    cells = sweep(family, cases, corpus, disc_tol=args.tol)
    all_ok = all(c.certificate is not None and c.certificate.passed for c in cells)
    return sweep_rows(cells), 0 if all_ok else 1


def _apply_operator(args, ast, n: int) -> tuple[GridFn, GridFn]:
    """The expression sampled on the n-interval grid, and the operator applied to it."""
    grid = uniform_grid(args.a, args.b, n)
    u = GridFn(grid, eval_expr(ast, grid.nodes), name=args.expr)
    return u, OPERATORS[args.operator](u, args.alpha)


def _cmd_op(args) -> tuple[list[dict], int]:
    u, out = _apply_operator(args, parse_expr(args.expr), args.n)
    hadamard = args.operator.startswith("hadamard")
    ts = log_companion_times(u.grid) if hadamard else out.grid.nodes
    return [{"t": float(t), "value": float(v)} for t, v in zip(ts, out.samples)], 0


def _cmd_sharpness(args) -> tuple[list[dict], int]:
    case = InequalityCase(family=Family(args.family), a=args.a, b=args.b,
                          **_case_fields(args))
    result = sharpness_search(case, budget=args.budget, seed=args.seed,
                              degree=args.degree, grid_n=args.n)
    rows = [{"best": certificate_row(result.certificate),
             "coefficients": list(result.coefficients)}]
    return rows, 0 if result.certificate.passed else 1


def _cmd_converge(args) -> tuple[list[dict], int]:
    ladder = args.n
    if len(ladder) < 2:
        raise ParamError("converge needs at least two grid sizes")
    ast = parse_expr(args.expr)
    outputs = [_apply_operator(args, ast, n)[1] for n in ladder]
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
    return rows, 0


def _cmd_diffuse(args) -> tuple[list[dict], int]:
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
    return [{"t": float(t), "energy": float(e), "bound": float(bound)}
            for t, e, bound in zip(trace.times, trace.energy, trace.bound)], 0


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
        rows, code = handlers[args.cmd](args)
        if args.out == "csv":
            sys.stdout.write(emit_csv(rows))
        else:
            print(emit_payload_json(rows, command, stamp))
        return code
    except FracineqError as exc:
        kind = "error" if exc.exit_code == 3 else "numeric error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
