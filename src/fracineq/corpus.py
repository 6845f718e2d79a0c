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


#: the most steps of Boyd's iteration and of the minorize-maximize loop; 9 reach the
#: optimum of the benchmark's theta = 1.5 case, and at most 8 those of its products
_BOYD_STEPS = 500


def _exact(left: np.ndarray, left_w: np.ndarray | None, theta: float | None,
           right: np.ndarray, right_w: np.ndarray) -> np.ndarray | None:
    """The best coefficients over the basis of ``BasisSides.quotient()``, or None.

    The rhs norm of coefficients c is |B^T c|, with B the right map scaled by
    the root of its node weights.  With B = U S V^T over the directions whose
    singular value exceeds (degree + 1) eps max(S), c = U S^-1 y has rhs |y|,
    and the lhs is a norm of y^T Z with the whitened left map Z = S^-1 U^T
    left, its columns scaled by their node weights to the power 1/theta.
    Over |y| = 1 the largest sup norm is the longest column of Z, the dual
    norm of one node's values, and the largest L^2 norm the top singular
    value of Z (Golub & Van Loan, Matrix Computations, 8.7).  For theta != 2,
    Boyd's power iteration for mixed norms (Boyd, Linear Algebra Appl. 9,
    1974; Higham, Numer. Math. 62, 1992), y <- Z (|Z^T y|^(theta - 1)
    sign(Z^T y)) over its length, climbs from that singular vector: the
    L^theta norm is convex, so no step lowers it.  It stops when a step
    raises |Z^T y|^theta by less than a relative 1e-15, or after _BOYD_STEPS
    steps, at a local optimum.  Returns c scaled to max |c_k| = 1, or None
    for a zero right map or a value out of float range.
    """
    with np.errstate(all="ignore"):  # a value out of float range returns None below
        b = right * np.sqrt(right_w)
        scaled = left if left_w is None else left * left_w ** (1.0 / theta)
        if not (np.isfinite(b).all() and np.isfinite(scaled).all()):
            return None
        # the singular values and left vectors of B are those of the triangle
        # R^T of B^T = QR, which never forms a (degree + 1) x (n + 1) factor
        u, s, _ = np.linalg.svd(np.linalg.qr(b.T, mode="r").T)
        keep = s > s.size * np.finfo(float).eps * s[0]
        if not keep.any():
            return None
        whiten = u[:, keep] / s[keep]
        z = whiten.T @ scaled
        if left_w is None:
            y = z[:, np.argmax(np.einsum("ij,ij->j", z, z))]
        else:
            y = np.linalg.svd(np.linalg.qr(z.T, mode="r").T)[0][:, 0]
        best, top = y, -math.inf
        for _ in range(0 if theta in (None, 2.0) else _BOYD_STEPS):
            zy = y @ z
            value = np.sum(np.abs(zy) ** theta)
            if not value > top * (1.0 + 1e-15):
                break
            best, top = y, value
            y = z @ (np.abs(zy) ** (theta - 1.0) * np.sign(zy))
            y = y / np.linalg.norm(y)
        c = whiten @ best
    if not np.isfinite(c).all():
        return None
    return c / c[np.argmax(np.abs(c))]


def _product(left: np.ndarray, left_w: np.ndarray, rights: tuple,
             start: np.ndarray) -> np.ndarray | None:
    """The best coefficients over the basis of a product in ``BasisSides.quotient()``.

    With A = sum left_w (c @ left)^2 and B and C the squares of the two
    right norms, with powers delta and 1 - delta, the ratio is a fixed power
    of A / (B^delta C^(1 - delta)).  By weighted AM-GM, B^delta C^(1 - delta)
    is the least over s > 0 of delta s B + (1 - delta) s^(-delta/(1 - delta)) C,
    attained at s = (C/B)^(1 - delta).  So each step sets s from the current
    coefficients and takes the exact optimum of the L^2 quotient with that
    sum on the right (:func:`_exact`): a minorize-maximize step (Hunter &
    Lange, Am. Stat. 58, 2004), which cannot lower A / (B^delta C^(1 - delta)).
    From ``start`` the loop stops when a step raises it by less than a
    relative 1e-15, when _exact has no optimum, or after _BOYD_STEPS steps.
    Returns the best coefficients so far, or None if not even ``start`` has
    a value.
    """
    (dv, w_b, delta), (v, w_c, _) = rights
    right = np.hstack([dv, v])
    best, top, c = None, -math.inf, start
    for _ in range(_BOYD_STEPS):
        with np.errstate(all="ignore"):  # a zero or overflowing form ends the loop
            a, b, cc = (w @ (c @ m) ** 2 for m, w in ((left, left_w), (dv, w_b), (v, w_c)))
            value = a / (b**delta * cc ** (1.0 - delta))
            if not value > top * (1.0 + 1e-15):
                break
            best, top = c, value
            s = (cc / b) ** (1.0 - delta)
            c = _exact(left, left_w, 2.0, right, np.concatenate(
                [delta * s * w_b, (1.0 - delta) * s ** (-delta / (1.0 - delta)) * w_c]))
        if c is None:
            break
    return best


def _compass(sides: BasisSides, best_coeffs: np.ndarray, best_ratio: float,
             budget: int) -> np.ndarray:
    # the compass rounds of sharpness_search from the given best; returns the best coefficients
    degree = best_coeffs.size - 1
    # the coordinate moves of one round, in proposal order
    axes = np.repeat(np.arange(degree + 1), 2)
    signs = np.tile([1.0, -1.0], degree + 1)
    evals = 0
    step = 0.5
    while evals < budget and step >= 1e-3:
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
    return best_coeffs


def sharpness_search(case: InequalityCase, budget: int, seed: int = 0,
                     degree: int = 4, grid_n: int = 256) -> SharpnessResult:
    """Search polynomial coefficient space for the largest certificate ratio.

    The candidates are functions (t - a) * q(t) with q of the given degree,
    and the initial iterate is q = 1.  ``budget`` may not be negative; at 0
    the initial iterate is the result.  ``seed`` must be >= 0 and has no
    effect: no proposal is random.

    At p = 2, for a family whose sides are the norm of one map over the L^2
    norm of the derivative (poincare-sobolev, poincare-sobolev-lq,
    sobolev-beta, hardy, weighted-hardy and their sequential and Hadamard
    twins) and for Gagliardo-Nirenberg and its twins at p = q = gamma = 2
    with s > 0, a positive budget solves the quotient over the degree + 1
    basis directly (:func:`_exact`): a singular-value problem of that size,
    exact for an L^2 or sup norm on the left, and Boyd's iteration, a local
    optimum, for an L^theta norm with theta != 2.  The products of norm
    powers at p = 2, CKN at p = q = 2 and uncertainty, are solved as a
    sequence of such quotients from the initial iterate, a minorize-maximize
    loop (:func:`_product`) that no step lowers; at delta = 0 or 1 a CKN case
    is one quotient.  The result replaces the initial iterate when its ratio
    exceeds the initial ratio by the relative margin IMPROVEMENT_MARGIN; a
    zero right map or a basis value out of float range has no optimum and
    keeps it.

    Every other case runs a derivative-free compass search with shrinking
    steps.  A round tries +step and -step on each coefficient in turn from
    the best coefficients so far; a trial replaces them only when its ratio
    exceeds theirs by IMPROVEMENT_MARGIN.  A round without a gain halves the
    step, and the search ends when the step falls below 1e-3 or when
    ``budget`` trials after the initial iterate are spent, whichever comes
    first.  The proposal sequence is deterministic, so the best ratio is
    monotone in the budget.

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
    sides = BasisSides(case, [_candidate(grid, e) for e in np.eye(degree + 1)])
    best_coeffs = np.zeros(degree + 1)
    best_coeffs[0] = 1.0
    best_ratio = _first_gain(sides, best_coeffs[None, :], -math.inf)[1]  # any ratio beats -inf
    forms = sides.quotient() if budget else None
    if forms is None:
        best_coeffs = _compass(sides, best_coeffs, best_ratio, budget)
    else:
        left, left_w, theta, rights = forms
        exact = (_exact(left, left_w, theta, *rights[0][:2]) if len(rights) == 1
                 else _product(left, left_w, rights, best_coeffs))
        if exact is not None and _first_gain(sides, exact[None, :], best_ratio) is not None:
            best_coeffs = exact
    return SharpnessResult(evaluate_sides(case, _candidate(grid, best_coeffs)), best_coeffs)
