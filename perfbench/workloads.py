"""The four benchmark workloads: inputs from a seed, the timed work, the checks.

Each workload is three functions:

* ``setup(seed, size)`` builds the inputs (corpus, cases, u0, operator data);
* ``run(inputs)`` is the timed work, the same user path the CLI takes;
* ``check(inputs, result)`` verifies the outputs outside the timed region and
  returns ``(attempted, failed, ops)``: outputs checked, outputs that failed,
  and the operations the timed work did (certificates, time steps or operator
  evaluations), which the printed ``ops_per_s`` divides by the wall time.

``run`` reaches the library only through module attributes
(``inequalities.sweep``, ``corpus.sharpness_search``, ...), so the wrappers
that ``tracer`` installs see every call.  Nothing here reads
``OperatorMatrix.weights``.
"""

from __future__ import annotations

import json
import math

import numpy as np
import scipy.linalg

from fracineq import corpus, diffusion, grids, inequalities, operators, report
from fracineq.inequalities import Family, InequalityCase
from fracineq.special import gamma_fn

#: problem sizes; "smoke" runs every workload and every check in seconds
SIZES = {
    "full": {
        "sweep": {"n": 1024, "count": 12, "samples": 64},
        "sharpness": {"grid_n": 256, "budget": 1000},
        "diffuse": {"n": 2048, "alpha": 0.75, "T": 1.0, "dt": 2e-3},
        "operators": {"ns": (4096, 8192)},
    },
    "smoke": {
        "sweep": {"n": 64, "count": 2, "samples": 8},
        "sharpness": {"grid_n": 256, "budget": 500},
        "diffuse": {"n": 128, "alpha": 0.75, "T": 0.1, "dt": 1e-3},
        "operators": {"ns": (4096,)},
    },
}

#: relative agreement required between a sweep cell and its lone re-evaluation
SWEEP_REEVAL_RTOL = 1e-12
#: criterion 5: the Poincare-Sobolev alpha = 1 search must come this close to 1
SHARPNESS_MIN_RATIO = 0.999
#: criterion 7: stepped energy against the eigendecomposition of (K, M)
DIFFUSE_RTOL = 1e-10
#: criterion 1: relative sup error of every operator against its closed form
OPERATOR_RTOL = 1e-6


# -- the criterion-4 lattice: 17 families, 12 cases each ----------------------

def lattice(a: float, b: float) -> dict[Family, list[InequalityCase]]:
    def cases(family, combos):
        return [inequalities.validate_case(InequalityCase(family=family, a=a, b=b, **kw))
                for kw in combos]

    sup = [dict(alpha=al, p=p) for al in (0.6, 0.75, 0.9) for p in (2.0, 3.0, 4.0, 6.0)]
    wh = [dict(alpha=al, p=p, gamma=g)
          for al in (0.75, 0.9) for p in (2.0, 3.0) for g in (-1.5, 0.0, 2.0)]
    gn = [dict(alpha=al, p=p, q=q, s=0.5)
          for al in (0.75, 0.9) for p in (2.0, 4.0) for q in (2.0, 3.0)] + \
         [dict(alpha=0.9, p=2.0, q=2.0, s=s) for s in (0.0, 0.25, 0.8, 1.0)]
    ckn = [dict(alpha=0.9, p=p, q=q, delta=0.5, d=d, e=0.3)
           for p in (2.0, 3.0) for q in (2.0, 3.0) for d in (0.8, 1.2)] + \
          [dict(alpha=0.9, p=2.0, q=2.0, delta=dl, d=d, e=0.3)
           for dl in (0.0, 1.0) for d in (0.8, 1.2)]
    seq = [dict(alpha=al, beta=be, p=p)
           for al in (0.8, 0.9) for be in (0.3, 0.6) for p in (2.0, 3.0, 4.0)]
    seq_gn = [dict(alpha=al, beta=be, p=p, q=2.0, s=0.5)
              for al in (0.4, 0.7) for be in (0.75, 0.9) for p in (2.0, 3.0)] + \
             [dict(alpha=0.5, beta=0.8, p=2.0, q=3.0, s=s) for s in (0.25, 0.5, 0.75, 1.0)]
    lq = [dict(alpha=al, p=p, theta=th)
          for al in (0.6, 0.75, 0.9) for p in (2.0, 3.0) for th in (1.5, 3.0)]
    beta = [dict(alpha=al, beta=be, p=p)
            for al in (0.85, 0.9, 0.95) for be in (0.0, 0.1) for p in (4.0, 6.0)]
    combos = {
        Family.POINCARE_SOBOLEV: sup,
        Family.POINCARE_SOBOLEV_LQ: lq,
        Family.SOBOLEV_BETA: beta,
        Family.HARDY: sup,
        Family.WEIGHTED_HARDY: wh,
        Family.GAGLIARDO_NIRENBERG: gn,
        Family.CKN: ckn,
        Family.SEQ_POINCARE_SOBOLEV: seq,
        Family.SEQ_HARDY: seq,
        Family.SEQ_GAGLIARDO_NIRENBERG: seq_gn,
        Family.HAD_POINCARE_SOBOLEV: sup,
        Family.HAD_HARDY: sup,
        Family.HAD_WEIGHTED_HARDY: wh,
        Family.HAD_GAGLIARDO_NIRENBERG: gn,
        Family.HAD_CKN: ckn,
        Family.UNCERTAINTY: sup,
        Family.HAD_UNCERTAINTY: sup,
    }
    return {family: cases(family, kws) for family, kws in combos.items()}


# -- sweep: the `verify` path over the whole lattice --------------------------

def sweep_setup(seed: int, size: dict) -> dict:
    grid = grids.uniform_grid(1.0, 2.0, size["n"])
    spec = corpus.CorpusSpec.polynomials(grid, degree=3, count=size["count"], seed=seed)
    return {"lattice": lattice(1.0, 2.0), "corpus": corpus.generate(spec),
            "seed": seed, "samples": size["samples"]}


def sweep_run(inputs: dict) -> list:
    out = []
    for family, cases in inputs["lattice"].items():
        cells = inequalities.sweep(family, cases, inputs["corpus"])
        payload = report.emit_payload_json(report.sweep_rows(cells),
                                           f"fracineq verify --family {family.value}")
        out.append((cells, payload))
    return out


def _rel(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def sweep_check(inputs: dict, result: list) -> tuple[int, int, int]:
    attempted = failed = 0
    all_cells = []
    for cells, payload in result:
        rows = json.loads(payload)["results"]
        attempted += 1
        failed += len(rows) != len(cells) or any(row.get("pass") is not True for row in rows)
        for cell in cells:
            attempted += 1
            failed += cell.error is not None or not cell.certificate.passed
        all_cells.extend(cells)
    # re-evaluate a seeded sample one cell at a time: keeps a batched sweep honest
    functions = {u.name: u for u in inputs["corpus"]}
    rng = np.random.default_rng(inputs["seed"])
    for i in rng.choice(len(all_cells), size=min(inputs["samples"], len(all_cells)),
                        replace=False):
        cell = all_cells[i]
        attempted += 1
        if cell.certificate is None:
            failed += 1
            continue
        lone = inequalities.evaluate_sides(cell.case, functions[cell.function])
        got = cell.certificate
        failed += any(_rel(getattr(got, f), getattr(lone, f)) > SWEEP_REEVAL_RTOL
                      for f in ("lhs", "rhs", "ratio", "disc_tol"))
    return attempted, failed, len(all_cells)


# -- sharpness: sequential searches, one per family plus criterion 5 ----------

def sharpness_setup(seed: int, size: dict) -> dict:
    cases = [family_cases[0] for family_cases in lattice(1.0, 2.0).values()]
    cases.append(inequalities.validate_case(InequalityCase(
        Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=1.0, p=2.0)))
    return {"cases": cases, "seed": seed, **size}


def sharpness_run(inputs: dict) -> list:
    return [corpus.sharpness_search(case, budget=inputs["budget"], seed=inputs["seed"],
                                    grid_n=inputs["grid_n"])
            for case in inputs["cases"]]


def sharpness_check(inputs: dict, result: list) -> tuple[int, int, int]:
    failed = sum(not r.certificate.passed for r in result)
    crit5 = result[-1].certificate
    failed += not SHARPNESS_MIN_RATIO <= crit5.ratio <= 1.0 + crit5.disc_tol
    # budget evaluations after the initial one, per search
    return len(result) + 1, failed, len(result) * (inputs["budget"] + 1)


# -- diffuse: implicit-Euler energy decay -------------------------------------

def diffuse_setup(seed: int, size: dict) -> dict:
    grid = grids.uniform_grid(0.0, 1.0, size["n"])
    (u0,) = corpus.generate(corpus.CorpusSpec.polynomials(grid, degree=3, count=1,
                                                          seed=seed))
    return {"problem": diffusion.DiffusionProblem(grid, size["alpha"], u0,
                                                  T=size["T"], dt=size["dt"])}


def diffuse_run(inputs: dict):
    trace = diffusion.run(inputs["problem"])
    return trace, diffusion.check_apriori(trace)


def diffuse_check(inputs: dict, result) -> tuple[int, int, int]:
    trace, apriori = result
    problem = inputs["problem"]
    # independent energy trace: with A = M^-1/2 K M^-1/2 = V diag(lam) V^T and
    # c = V^T M^1/2 u0, implicit Euler gives I(t_k) = sum c^2 (1 + dt lam)^-2k
    mass = diffusion.mass_diagonal(problem.grid)
    root = np.sqrt(mass)
    k = diffusion.assemble_stiffness(problem.grid, problem.alpha)
    lam, vecs = scipy.linalg.eigh(k / root[:, None] / root[None, :])
    c2 = (vecs.T @ (root * problem.u0.samples[1:])) ** 2
    steps = np.arange(trace.energy.size)[:, None]
    expect = (c2[None, :] * (1.0 + problem.dt * lam[None, :]) ** (-2.0 * steps)).sum(axis=1)
    rel = np.abs(trace.energy - expect) / expect
    failed = int(np.count_nonzero(~(rel <= DIFFUSE_RTOL)))
    failed += (not apriori.monotone_ok) + (not apriori.exp_bound_ok)
    return trace.energy.size + 2, failed, trace.energy.size - 1


# -- operators: every kind, built cold at two large n -------------------------

def _power_case(rng, kind: str, n: int) -> dict:
    # closed forms hold for power-law data; the (mu, alpha) box keeps the
    # discretization error under OPERATOR_RTOL at n >= 4096, with the worst
    # corner (mu = 3, alpha = 0.3 for the derivatives) at about half of it.
    # The L1 derivative error grows like h^(2 - alpha) and, at fixed n, with
    # alpha; mu < 2 makes the data too rough near a for the same bound.
    mu = rng.uniform(2.0, 3.0)
    alpha = rng.uniform(0.2, 0.9) if kind.endswith("integral") else rng.uniform(0.2, 0.3)
    c0, c1 = rng.uniform(0.5, 2.0, 2)
    if kind.startswith("hadamard"):
        grid = grids.uniform_grid(1.0, math.e, n)
        samples = c1 * np.log(grid.nodes) ** mu
    else:
        grid = grids.uniform_grid(0.0, 1.0, n)
        x = 1.0 - grid.nodes if kind == "right-rl-derivative" else grid.nodes
        samples = c1 * x**mu + (c0 if "rl-derivative" in kind else 0.0)
    return {"kind": kind, "grid": grid, "alpha": alpha, "mu": mu, "c0": c0, "c1": c1,
            "u": grids.GridFn(grid, samples)}


def operators_setup(seed: int, size: dict) -> dict:
    rng = np.random.default_rng(seed)
    return {"cases": [_power_case(rng, kind, n) for n in size["ns"]
                      for kind in operators.OPERATOR_KINDS]}


def _evaluate_cold(case: dict) -> np.ndarray:
    # one matrix alive at a time: it is released when this frame returns
    m = operators.operator_matrix(case["grid"], case["alpha"], case["kind"])
    u = case["u"]
    if case["kind"].startswith("hadamard"):
        u = operators.to_log_grid(u)
    return m.apply(u.samples)


def operators_run(inputs: dict) -> list:
    return [_evaluate_cold(case) for case in inputs["cases"]]


def _closed_form(case: dict) -> tuple[np.ndarray, slice]:
    kind, alpha, mu, c0, c1 = (case[k] for k in ("kind", "alpha", "mu", "c0", "c1"))
    grid = case["grid"]
    sign = 1.0 if kind.endswith("integral") else -1.0
    if kind.startswith("hadamard"):
        x = operators.log_companion_grid(grid).nodes
    elif kind == "right-rl-derivative":
        x = grid.b - grid.nodes
    else:
        x = grid.nodes - grid.a
    with np.errstate(divide="ignore"):
        expect = c1 * gamma_fn(mu + 1.0) / gamma_fn(mu + 1.0 + sign * alpha) \
            * x ** (mu + sign * alpha)
        if "rl-derivative" in kind:
            # the constant's singular derivative; the endpoint node is excluded
            expect = expect + c0 * x ** (-alpha) / gamma_fn(1.0 - alpha)
    if kind == "right-rl-derivative":
        return expect, slice(0, -1)
    return expect, slice(1, None)


def operators_check(inputs: dict, result: list) -> tuple[int, int, int]:
    failed = 0
    for case, got in zip(inputs["cases"], result):
        expect, keep = _closed_form(case)
        err = np.max(np.abs(got[keep] - expect[keep])) / np.max(np.abs(expect[keep]))
        failed += not err <= OPERATOR_RTOL
    return len(result), failed, len(result)


WORKLOADS = {
    "sweep": (sweep_setup, sweep_run, sweep_check),
    "sharpness": (sharpness_setup, sharpness_run, sharpness_check),
    "diffuse": (diffuse_setup, diffuse_run, diffuse_check),
    "operators": (operators_setup, operators_run, operators_check),
}
