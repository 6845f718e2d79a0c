"""Test-function generation and the sharpness probe.

Three corpus kinds: closed-form power families (t-a)^mu, seeded random
polynomials pre-multiplied by (t-a) so the boundary value vanishes exactly
in floating point, and user expressions in the grammar of
:mod:`fracineq.expressions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParamError
from .expressions import eval_expr, parse_expr
from .grids import Grid, GridFn
from .inequalities import Certificate, InequalityCase, evaluate_sides, validate_case

__all__ = ["CorpusSpec", "generate", "sharpness_search", "SharpnessResult"]


@dataclass(frozen=True)
class CorpusSpec:
    """Recipe for a deterministic list of grid functions.

    kind is "powers" (uses mus), "polynomials" (uses degree/count/seed), or
    "expressions" (uses texts).
    """

    kind: str
    grid: Grid
    vanish_at_a: bool = True
    mus: tuple[float, ...] = ()
    degree: int = 3
    count: int = 1
    seed: int = 0
    texts: tuple[str, ...] = ()

    @staticmethod
    def powers(grid: Grid, mus, vanish_at_a: bool = True) -> "CorpusSpec":
        return CorpusSpec("powers", grid, vanish_at_a, mus=tuple(float(m) for m in mus))

    @staticmethod
    def polynomials(grid: Grid, degree: int, count: int, seed: int) -> "CorpusSpec":
        return CorpusSpec("polynomials", grid, True, degree=int(degree),
                          count=int(count), seed=int(seed))

    @staticmethod
    def expressions(grid: Grid, texts, vanish_at_a: bool = True) -> "CorpusSpec":
        return CorpusSpec("expressions", grid, vanish_at_a,
                          texts=tuple(str(t) for t in texts))


def _power_fn(grid: Grid, mu: float) -> GridFn:
    return GridFn(grid, (grid.nodes - grid.a) ** mu, name=f"pow:mu={mu:g}")


def _random_polynomial(grid: Grid, coeffs: np.ndarray, name: str) -> GridFn:
    # q evaluated in the normalized variable keeps coefficients well scaled;
    # the (t - a) factor makes samples[0] = 0 exact
    x = (grid.nodes - grid.a) / (grid.b - grid.a)
    q = np.polynomial.polynomial.polyval(x, coeffs)
    return GridFn(grid, (grid.nodes - grid.a) * q, name=name)


def generate(spec: CorpusSpec) -> list[GridFn]:
    """Materialize the corpus; deterministic for a fixed spec."""
    if spec.kind == "powers":
        if spec.vanish_at_a and any(mu <= 0.0 for mu in spec.mus):
            raise DomainError(
                "power corpus with vanish_at_a requires mu > 0 "
                f"(got {spec.mus})"
            )
        return [_power_fn(spec.grid, mu) for mu in spec.mus]
    if spec.kind == "polynomials":
        rng = np.random.default_rng(spec.seed)
        out = []
        for i in range(spec.count):
            coeffs = rng.uniform(-1.0, 1.0, spec.degree + 1)
            out.append(_random_polynomial(spec.grid, coeffs,
                                          name=f"poly:seed={spec.seed}:{i}"))
        return out
    if spec.kind == "expressions":
        out = []
        for text in spec.texts:
            samples = eval_expr(parse_expr(text), spec.grid.nodes)
            out.append(GridFn(spec.grid, samples, name=f"expr:{text}"))
        return out
    raise DomainError(f"unknown corpus kind {spec.kind!r}")


@dataclass(frozen=True)
class SharpnessResult:
    """Outcome of a ratio-maximization search."""

    certificate: Certificate
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)


def _candidate(grid: Grid, coeffs: np.ndarray) -> GridFn:
    return _random_polynomial(grid, coeffs, name="sharpness-candidate")


def sharpness_search(case: InequalityCase, budget: int, seed: int = 0,
                     degree: int = 4, grid_n: int = 256) -> SharpnessResult:
    """Search polynomial coefficient space for the largest certificate ratio.

    Derivative-free coordinate search with shrinking steps and seeded random
    restarts over functions (t - a) * q(t) with q of the given degree.  The
    initial iterate is q = 1.  ``budget`` counts certificate evaluations
    after the initial one; the deterministic proposal sequence makes the
    best ratio monotone in the budget for a fixed seed.
    """
    case = validate_case(case)
    if degree < 0:
        raise ParamError(f"sharpness search needs degree >= 0 (got {degree})")
    grid = Grid(case.a, case.b, grid_n)
    rng = np.random.default_rng(seed)

    def ratio_of(coeffs: np.ndarray) -> tuple[float, Certificate]:
        cert = evaluate_sides(case, _candidate(grid, coeffs))
        return cert.ratio, cert

    best_coeffs = np.zeros(degree + 1)
    best_coeffs[0] = 1.0
    best_ratio, best_cert = ratio_of(best_coeffs)
    evals = 0
    step = 0.5
    while evals < budget:
        improved = False
        for k in range(degree + 1):
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                trial = best_coeffs.copy()
                trial[k] += sign * step
                ratio, cert = ratio_of(trial)
                evals += 1
                if ratio > best_ratio:
                    best_ratio, best_cert, best_coeffs = ratio, cert, trial
                    improved = True
        if not improved:
            step *= 0.5
            if step < 1e-3:
                if evals >= budget:
                    break
                trial = rng.uniform(-1.0, 1.0, degree + 1)
                ratio, cert = ratio_of(trial)
                evals += 1
                if ratio > best_ratio:
                    best_ratio, best_cert, best_coeffs = ratio, cert, trial
                step = 0.5
    return SharpnessResult(best_cert, best_coeffs)
