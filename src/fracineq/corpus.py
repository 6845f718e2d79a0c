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

from .errors import DomainError, NumericError, ParamError, SizeError
from .expressions import eval_expr, parse_expr
from .grids import MAX_DENSE_N, MAX_N, Grid, GridFn, _read_only
from .inequalities import (BasisSides, Certificate, InequalityCase, evaluate_sides,
                           validate_case)

__all__ = ["CorpusSpec", "generate", "sharpness_search", "SharpnessResult",
           "MAX_CORPUS_SAMPLES", "IMPROVEMENT_MARGIN"]

#: the most samples a polynomial corpus may hold: the elements of the largest
#: dense matrix, (MAX_DENSE_N + 1)^2 floats or 537 MB
MAX_CORPUS_SAMPLES = (MAX_DENSE_N + 1) ** 2

#: the solve of a sharpness search replaces the initial iterate only when its
#: ratio exceeds the initial ratio by this relative margin.  The ratio is
#: invariant under u -> lambda u, so a result that only rescales the initial
#: iterate ties with it, and rounding must not decide the tie.
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
    def expressions(grid: Grid, texts) -> "CorpusSpec":
        return CorpusSpec("expressions", grid, texts=tuple(str(t) for t in texts))


def _grid_fn(grid: Grid, samples: np.ndarray, name: str) -> GridFn:
    # samples computed under np.errstate; one out of float range is refused by name
    if not np.isfinite(samples).all():
        raise NumericError(f"{name}: sample value overflows or is not a number")
    return GridFn(grid, samples, name=name)


def _power_fn(grid: Grid, mu: float) -> GridFn:
    with np.errstate(all="ignore"):
        samples = (grid.nodes - grid.a) ** mu
    return _grid_fn(grid, samples, f"pow:mu={mu:g}")


def _polynomial(grid: Grid, coeffs: np.ndarray, name: str) -> GridFn | list[GridFn]:
    # (t - a) q((t - a) / (b - a)), q's coefficients lowest first: the normalized variable
    # keeps them well scaled and the factor makes samples[0] = 0 exact.  A (rows, degree + 1)
    # array gives one function per row, named name:i, from one Horner pass in place; the
    # functions share the frozen block, so the pass holds one array of samples
    coeffs = np.asarray(coeffs, dtype=float)
    rows = np.atleast_2d(coeffs)
    x = (grid.nodes - grid.a) / (grid.b - grid.a)
    samples = np.zeros((len(rows), grid.n + 1))
    with np.errstate(all="ignore"):
        for c in rows.T[::-1]:
            samples *= x
            samples += c[:, None]
        samples *= grid.nodes - grid.a
    samples.setflags(write=False)
    if coeffs.ndim == 1:
        return _grid_fn(grid, samples[0], name)
    return [_grid_fn(grid, row, f"{name}:{i}") for i, row in enumerate(samples)]


def _check_polynomial(grid: Grid, degree: int, seed: int, what: str) -> None:
    # refused before the coefficient vector or the generator is made
    if degree < 0:
        raise ParamError(f"{what} needs degree >= 0 (got {degree})")
    if degree > grid.n:
        raise ParamError(f"{what} needs degree <= n = {grid.n} (got {degree})")
    if seed < 0:
        raise ParamError(f"{what} needs seed >= 0 (got {seed})")


def generate(spec: CorpusSpec) -> list[GridFn]:
    """Materialize the corpus; deterministic for a fixed spec.

    A sample out of float range raises NumericError naming its function.
    """
    if spec.kind == "powers":
        if not all(math.isfinite(mu) for mu in spec.mus):
            raise ParamError(f"power corpus needs finite exponents (got {spec.mus})")
        if spec.vanish_at_a and any(mu <= 0.0 for mu in spec.mus):
            raise DomainError(f"power corpus with vanish_at_a requires mu > 0 (got {spec.mus})")
        return [_power_fn(spec.grid, mu) for mu in spec.mus]
    if spec.kind == "polynomials":
        _check_polynomial(spec.grid, spec.degree, spec.seed, "polynomial corpus")
        if spec.count < 0:
            raise ParamError(f"polynomial corpus needs count >= 0 (got {spec.count})")
        if spec.count * (spec.grid.n + 1) > MAX_CORPUS_SAMPLES:
            raise SizeError(
                f"polynomial corpus needs count * (n + 1) <= {MAX_CORPUS_SAMPLES} "
                f"(got count={spec.count}, n={spec.grid.n})"
            )
        coeffs = np.random.default_rng(spec.seed).uniform(-1.0, 1.0,
                                                          (spec.count, spec.degree + 1))
        return _polynomial(spec.grid, coeffs, f"poly:seed={spec.seed}")
    if spec.kind == "expressions":
        return [GridFn(spec.grid, eval_expr(parse_expr(t), spec.grid.nodes), name=f"expr:{t}")
                for t in spec.texts]
    raise DomainError(f"unknown corpus kind {spec.kind!r}")


@dataclass(frozen=True)
class SharpnessResult:
    """Outcome of a ratio-maximization search."""

    certificate: Certificate
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _read_only(self.coefficients))


#: the most power steps, minorize-maximize steps or Newton steps of one solve; 9 power
#: steps reach the benchmark's theta = 1.5 optimum, and at most 8 steps its products'
_BOYD_STEPS = 500


def _squares(x: np.ndarray, forms: list) -> tuple:
    # the sum of the squared norms |x @ zr|_p over the forms (zr, p), with half its gradient
    # and Hessian: with r = x @ zr, S = sum |r|^p, G = zr |r|^(p-1) sign(r) and M = zr
    # diag(|r|^(p-2)) zr^T, the sums of S^(2/p), S^(2/p-1) G and (p-1) S^(2/p-1) M + (2-p)
    # S^(2/p-2) G G^T
    value, grad, hess = 0.0, 0.0, 0.0
    for zr, p in forms:
        r = x @ zr
        a = np.abs(r)
        s = np.sum(a**p)
        g = zr @ (a ** (p - 1.0) * np.sign(r))
        value += s ** (2.0 / p)
        grad = grad + s ** (2.0 / p - 1.0) * g
        hess = hess + ((p - 1.0) * s ** (2.0 / p - 1.0) * (zr * a ** (p - 2.0)) @ zr.T
                       + (2.0 - p) * s ** (2.0 / p - 2.0) * np.outer(g, g))
    return value, grad, hess


def _newton(g: np.ndarray, x: np.ndarray, forms: list) -> np.ndarray:
    # the least of _squares on the hyperplane <g, x'> = <g, x>, by Newton steps in its
    # null space from x, each halved until the sum falls, until the Newton decrement
    # is below a relative 1e-15
    null = np.linalg.svd(g[None, :])[2][1:]
    value, grad, hess = _squares(x, forms)
    for _ in range(_BOYD_STEPS):
        reduced = null @ hess @ null.T
        if not np.isfinite(reduced).all():
            break
        step = null.T @ np.linalg.lstsq(reduced, -(null @ grad), rcond=None)[0]
        if not -(grad @ step) > 1e-15 * value:
            break
        for t in 0.5 ** np.arange(40):
            trial = _squares(x + t * step, forms)
            if trial[0] < value:
                break
        else:
            break
        x, (value, grad, hess) = x + t * step, trial
    return x


def _exact(left: np.ndarray, left_w: np.ndarray | None, theta: float | None,
           forms: tuple) -> np.ndarray | None:
    """The best coefficients over the basis of a quotient, or None.

    The left side is max |c @ left|, or its L^theta norm with node weights
    ``left_w``.  The right side H is the root of the sum of the squares of
    the norms ``forms``, triples (right, right_w, p) of p-th power sum
    right_w |c @ right|^p.  B, the right maps side by side scaled by the root
    of their node weights, is whitened by its SVD B = U S V^T over the
    directions whose singular value exceeds (degree + 1) eps max(S): c =
    U S^-1 y has |B^T c| = |y|, and the left side is a norm of y^T Z with Z
    = S^-1 U^T left, its columns scaled by their node weights to the power
    1/theta.  Over |y| = 1 the largest sup norm is the longest column of Z
    and the largest L^2 norm the top singular value of Z (Golub & Van Loan,
    Matrix Computations, 8.7): the optimum for L^2 norms on both sides, and
    the start otherwise.  From there power steps y <- argmax <g, x> / H(x),
    with g a subgradient of the convex left side at y, never lower the ratio
    (Boyd, Linear Algebra Appl. 9, 1974; Hein & Buehler, NIPS 2010).  For L^2
    norms on the right the step is Boyd's closed form g = Z (|Z^T y|^(theta
    - 1) sign(Z^T y)); otherwise it is a damped Newton solve for the least H
    on <g, x> = <g, y>, with g the column of the peak node for a sup left
    side.  The steps stop when one raises the ratio (|Z^T y|^theta for L^2
    norms on the right) by less than a relative 1e-15, or after _BOYD_STEPS
    steps, at a local optimum.  Returns c scaled to max |c_k| = 1, or None
    for a zero right map or a value out of float range.
    """
    with np.errstate(all="ignore"):  # a value out of float range returns None below
        b = np.hstack([right * np.sqrt(right_w) for right, right_w, _ in forms])
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
        l2 = all(p == 2.0 for _, _, p in forms)
        # each whitened right map with its weights, less the nodes where every row
        # vanishes, at which |r|^(p - 2) is infinite for p < 2
        rights = [(zr[:, (zr != 0.0).any(axis=0)], p) for zr, p in
                  ((whiten.T @ (right * right_w ** (1.0 / p)), p) for right, right_w, p in forms)]
        best, top = y, -math.inf
        for _ in range(0 if l2 and theta in (None, 2.0) else _BOYD_STEPS):
            zy = y @ z
            size = np.abs(zy)
            value = (np.sum(size**theta) if l2 else
                     (size.max() if theta is None else np.sum(size**theta) ** (1.0 / theta))
                     / math.sqrt(_squares(y, rights)[0]))
            if not value > top * (1.0 + 1e-15):
                break
            best, top = y, value
            j = np.argmax(size)
            g = (z[:, j] * np.sign(zy[j]) if theta is None
                 else z @ (size ** (theta - 1.0) * np.sign(zy)))
            y = g if l2 else _newton(g, y, rights)
            y = y / np.linalg.norm(y)
        c = whiten @ best
    if not np.isfinite(c).all():
        return None
    return c / c[np.argmax(np.abs(c))]


def _product(left: np.ndarray, left_w: np.ndarray | None, theta: float | None,
             rights: tuple, start: np.ndarray) -> np.ndarray | None:
    """The best coefficients over the basis of a product in ``BasisSides.quotient()``.

    With A the squared left norm and B and C the squares of the right norms,
    of powers delta and 1 - delta, the ratio is a fixed power of A / (B^delta
    C^(1 - delta)).  By weighted AM-GM, B^delta C^(1 - delta) is the least
    over s > 0 of delta s B + (1 - delta) s^(-delta/(1 - delta)) C, attained
    at s = (C/B)^(1 - delta).  So each step sets s from the current
    coefficients and solves the quotient with that sum on the right
    (:func:`_exact`, each norm's weights scaled to carry its factor): a
    minorize-maximize step (Hunter & Lange, Am. Stat. 58, 2004).  From
    ``start`` the loop stops when a step raises A / (B^delta C^(1 - delta))
    by less than a relative 1e-15, when _exact has no optimum, or after
    _BOYD_STEPS steps.  Returns the best coefficients so far, or None if not
    even ``start`` has a value.
    """
    (dv, w_b, p_b, delta), (v, w_c, p_c, _) = rights
    best, top, c = None, -math.inf, start
    for _ in range(_BOYD_STEPS):
        with np.errstate(all="ignore"):  # a zero or overflowing form ends the loop
            a, b, cc = (np.max(np.abs(c @ m)) ** 2 if p is None else (w @ np.abs(c @ m) ** p)
                        ** (2.0 / p) for m, w, p in ((left, left_w, theta), (dv, w_b, p_b),
                                                     (v, w_c, p_c)))
            value = a / (b**delta * cc ** (1.0 - delta))
            if not value > top * (1.0 + 1e-15):
                break
            best, top = c, value
            s = (cc / b) ** (1.0 - delta)
            mu_b, mu_c = delta * s, (1.0 - delta) * s ** (-delta / (1.0 - delta))
            c = _exact(left, left_w, theta, ((dv, mu_b ** (p_b / 2.0) * w_b, p_b),
                                             (v, mu_c ** (p_c / 2.0) * w_c, p_c)))
        if c is None:
            break
    return best


def sharpness_search(case: InequalityCase, budget: int, seed: int = 0,
                     degree: int = 4, grid_n: int = 256) -> SharpnessResult:
    """Search polynomial coefficient space for the largest certificate ratio.

    The candidates are functions (t - a) * q(t) with q of the given degree,
    and the initial iterate is q = 1.  ``budget`` may not be negative; 0
    keeps the initial iterate, and any positive budget runs the solve.
    ``seed`` must be >= 0 and has no effect: nothing is random.

    The solve works over the degree + 1 basis (:class:`BasisSides`), on the
    sides as :meth:`BasisSides.quotient` reduces them: one right norm is one
    quotient (:func:`_exact`), two a minorize-maximize loop of quotients
    from the initial iterate (:func:`_product`).  Its result replaces the
    initial iterate when its grid ratio exceeds the initial one by the
    relative margin IMPROVEMENT_MARGIN; a constant ratio, a zero right map or
    a basis value out of float range keeps it.  The returned certificate is
    :func:`evaluate_sides` of the best coefficients, with its Richardson
    pass.  The basis holds (degree + 1) (grid_n + 1) floats per array, so
    that count is limited to the samples of the largest grid, MAX_N + 1.
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
    sides = BasisSides(case, _polynomial(grid, np.eye(degree + 1), "sharpness-basis"))
    best_coeffs = np.eye(degree + 1)[0]
    best_ratio = sides.ratio(best_coeffs)
    forms = sides.quotient() if budget else None
    if forms is not None:
        left, left_w, theta, rights = forms
        exact = (_exact(left, left_w, theta, (rights[0][:3],)) if len(rights) == 1
                 else _product(left, left_w, theta, rights, best_coeffs))
        if exact is not None and sides.ratio(exact) > best_ratio * (1.0 + IMPROVEMENT_MARGIN):
            best_coeffs = exact
    candidate = _polynomial(grid, best_coeffs, "sharpness-candidate")
    return SharpnessResult(evaluate_sides(case, candidate), best_coeffs)
