"""Test-function generation and the sharpness probe.

Three corpus kinds: closed-form power families (t-a)^mu, seeded random
polynomials pre-multiplied by (t-a) so the boundary value vanishes exactly
in floating point, and user expressions in the grammar of
:mod:`fracineq.expressions`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParamError, SizeError
from .expressions import eval_expr, parse_expr
from .grids import MAX_DENSE_N, MAX_N, Grid, GridFn
from .inequalities import (BasisSides, Certificate, InequalityCase, evaluate_sides,
                           validate_case)

__all__ = ["CorpusSpec", "generate", "sharpness_search", "SharpnessResult",
           "MAX_CORPUS_SAMPLES", "IMPROVEMENT_MARGIN"]

#: the most samples a polynomial corpus may hold: the elements of the largest
#: dense matrix, (MAX_DENSE_N + 1)^2 floats or 537 MB
MAX_CORPUS_SAMPLES = (MAX_DENSE_N + 1) ** 2

#: a sharpness trial replaces the best function only when its ratio exceeds
#: the best ratio by this relative margin.  The ratio is invariant under
#: u -> lambda u, so a trial that only rescales the best function ties with
#: it, and rounding must not decide the tie.
IMPROVEMENT_MARGIN = 1e-12


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


def _check_polynomial(grid: Grid, degree: int, seed: int, what: str) -> None:
    # refused before the coefficient vector or the generator is made
    if degree < 0:
        raise ParamError(f"{what} needs degree >= 0 (got {degree})")
    if degree > grid.n:
        raise ParamError(f"{what} needs degree <= n = {grid.n} (got {degree})")
    if seed < 0:
        raise ParamError(f"{what} needs seed >= 0 (got {seed})")


def generate(spec: CorpusSpec) -> list[GridFn]:
    """Materialize the corpus; deterministic for a fixed spec."""
    if spec.kind == "powers":
        if not all(math.isfinite(mu) for mu in spec.mus):
            raise ParamError(f"power corpus needs finite exponents (got {spec.mus})")
        if spec.vanish_at_a and any(mu <= 0.0 for mu in spec.mus):
            raise DomainError(
                "power corpus with vanish_at_a requires mu > 0 "
                f"(got {spec.mus})"
            )
        return [_power_fn(spec.grid, mu) for mu in spec.mus]
    if spec.kind == "polynomials":
        _check_polynomial(spec.grid, spec.degree, spec.seed, "polynomial corpus")
        if spec.count * (spec.grid.n + 1) > MAX_CORPUS_SAMPLES:
            raise SizeError(
                f"polynomial corpus needs count * (n + 1) <= {MAX_CORPUS_SAMPLES} "
                f"(got count={spec.count}, n={spec.grid.n})"
            )
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


def _first_gain(sides: BasisSides, trials: np.ndarray,
                best_ratio: float) -> tuple[int, float] | None:
    # the first trial that improves on the best by the margin, or None; a
    # trial that fails a check before it raises that check's error
    ratios, error = sides.ratios(trials)
    gains = np.flatnonzero(ratios > best_ratio * (1.0 + IMPROVEMENT_MARGIN))
    if gains.size:
        return int(gains[0]), float(ratios[gains[0]])
    if error is not None:
        raise error
    return None


def sharpness_search(case: InequalityCase, budget: int, seed: int = 0,
                     degree: int = 4, grid_n: int = 256) -> SharpnessResult:
    """Search polynomial coefficient space for the largest certificate ratio.

    Derivative-free compass search with shrinking steps and seeded random
    restarts over functions (t - a) * q(t) with q of the given degree.  The
    initial iterate is q = 1.  A round tries +step and -step on each
    coefficient in turn from the best coefficients so far; a trial replaces
    them only when its ratio exceeds theirs by the relative margin
    IMPROVEMENT_MARGIN.  A round without a gain halves the step, and below
    1e-3 a random restart is tried and the step reset to 0.5.  ``budget``
    counts trials after the initial iterate and may not be negative; the
    deterministic proposal sequence makes the best ratio monotone in the
    budget for a fixed seed.

    The search compares ratios on the grid alone.  Each candidate is linear
    in its coefficients, so a :class:`BasisSides` over the degree + 1
    monomials scores the rest of a round as one block, keeping the trials up
    to the first gain.  The returned certificate is :func:`evaluate_sides`
    of the best coefficients, with its Richardson pass.  The basis holds
    (degree + 1) (grid_n + 1) floats per array, so that count is limited to
    the samples of the largest grid, MAX_N + 1.
    """
    case = validate_case(case)
    grid = Grid(case.a, case.b, grid_n)
    _check_polynomial(grid, degree, seed, "sharpness search")
    if budget < 0:
        raise ParamError(f"sharpness search needs budget >= 0 (got {budget})")
    if (degree + 1) * (grid.n + 1) > MAX_N + 1:
        raise SizeError(
            f"sharpness search needs (degree + 1)(n + 1) <= {MAX_N + 1} "
            f"(got degree={degree}, n={grid.n})"
        )
    rng = np.random.default_rng(seed)
    sides = BasisSides(case, [_candidate(grid, e) for e in np.eye(degree + 1)])
    # the coordinate moves of one round, in proposal order
    axes = np.repeat(np.arange(degree + 1), 2)
    signs = np.tile([1.0, -1.0], degree + 1)

    best_coeffs = np.zeros(degree + 1)
    best_coeffs[0] = 1.0
    best_ratio = _first_gain(sides, best_coeffs[None, :], -math.inf)[1]  # any ratio beats -inf
    evals = 0
    step = 0.5
    while evals < budget:
        improved = False
        move = 0
        while move < axes.size and evals < budget:
            rows = np.arange(move, min(axes.size, move + budget - evals))
            trials = np.repeat(best_coeffs[None, :], rows.size, axis=0)
            trials[np.arange(rows.size), axes[rows]] += signs[rows] * step
            gain = _first_gain(sides, trials, best_ratio)
            if gain is None:
                evals += rows.size
                break
            hit, best_ratio = gain
            evals += hit + 1
            move += hit + 1
            best_coeffs = trials[hit]
            improved = True
        if not improved:
            step *= 0.5
            if step < 1e-3:
                if evals >= budget:
                    break
                trial = rng.uniform(-1.0, 1.0, degree + 1)
                evals += 1
                gain = _first_gain(sides, trial[None, :], best_ratio)
                if gain is not None:
                    best_coeffs, best_ratio = trial, gain[1]
                step = 0.5
    return SharpnessResult(evaluate_sides(case, _candidate(grid, best_coeffs)), best_coeffs)
