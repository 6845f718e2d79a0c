"""Inequality families: case validation, closed-form constants, certificates.

Each inequality family bounds a left-hand norm by an explicit constant times
a product of right-hand norms.  ``evaluate_sides`` computes both sides for a
sampled function and records the outcome in a :class:`Certificate`.  The
pass rule is

    ratio = lhs / (constant * rhs_norm_product) <= 1 + disc_tol,

where disc_tol is a Richardson-style discretization-error proxy: 1e-6 plus
the change of the ratio between the evaluation grid and one coarser grid.

The 17 families are driven by a private registry with one record per
family: the fields it uses, its hypothesis check, and its shape, the
constant and the sides of one chain of inequalities.  Eight shapes cover
every family.  A Hadamard record is its standard twin with the Hadamard
derivative, which lives on the companion grid sigma = log(t/a), and with
span = log(b/a) in place of b - a in the constant.  A sequential record
applies its shape to the inner derivative v = D^inner u, which must then
vanish at a.

The sides are computed from sample arrays, reduced over the last axis: the
operand v, its derivative on the right and, for sobolev-beta, its order-beta
derivative.  ``evaluate_sides`` passes the vectors of one function (and of
its coarse copy); :class:`BasisSides` passes blocks of linear combinations
of fixed basis functions, one row per combination.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DomainError, FracineqError, HypothesisError, NumericError, ParamError,
                     SizeError)
from .grids import Grid, GridFn, NormKind, lp_trapezoid, nodal_norm, uniform_grid
from .grids import norm  # noqa: F401  (a target that perfbench/tracer.py wraps here)
from .operators import (caputo_derivative, hadamard_derivative, log_companion_grid,
                        log_companion_times)
from .special import conjugate, gamma_fn, holder_denominator

__all__ = [
    "Family",
    "InequalityCase",
    "Certificate",
    "SweepCell",
    "validate_case",
    "constant",
    "sobolev_beta_statement_constant",
    "evaluate_sides",
    "BasisSides",
    "sweep",
    "BOUNDARY_TOLERANCE",
]

#: absolute threshold for the numeric boundary-hypothesis check |u(a)|
BOUNDARY_TOLERANCE = 1e-10

_REL_TOL = 1e-10  # tolerance for exponent-relation checks on user input


class Family(enum.Enum):
    POINCARE_SOBOLEV = "poincare-sobolev"
    POINCARE_SOBOLEV_LQ = "poincare-sobolev-lq"
    SOBOLEV_BETA = "sobolev-beta"
    HARDY = "hardy"
    WEIGHTED_HARDY = "weighted-hardy"
    GAGLIARDO_NIRENBERG = "gagliardo-nirenberg"
    CKN = "ckn"
    SEQ_POINCARE_SOBOLEV = "seq-poincare-sobolev"
    SEQ_HARDY = "seq-hardy"
    SEQ_GAGLIARDO_NIRENBERG = "seq-gagliardo-nirenberg"
    HAD_POINCARE_SOBOLEV = "hadamard-poincare-sobolev"
    HAD_HARDY = "hadamard-hardy"
    HAD_WEIGHTED_HARDY = "hadamard-weighted-hardy"
    HAD_GAGLIARDO_NIRENBERG = "hadamard-gagliardo-nirenberg"
    HAD_CKN = "hadamard-ckn"
    UNCERTAINTY = "uncertainty"
    HAD_UNCERTAINTY = "hadamard-uncertainty"


@dataclass(frozen=True)
class InequalityCase:
    """One fully parameterized instance of an inequality family.

    Only the fields a family actually uses may be set; conjugate exponents
    are always derived from p, never stored.  ``gamma`` is the weight power
    for the weighted Hardy families and the output exponent for the
    Gagliardo-Nirenberg families (where it may be left None and is then
    derived from the exponent relation).
    """

    family: Family
    a: float
    b: float
    alpha: float
    beta: float | None = None
    p: float | None = None
    q: float | None = None
    r: float | None = None
    s: float | None = None
    delta: float | None = None
    gamma: float | None = None
    c: float | None = None
    d: float | None = None
    e: float | None = None
    theta: float | None = None

    def params(self) -> dict:
        """The fields that are set, other than family, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "family" and getattr(self, f.name) is not None}


def _fail(family: Family, clause: str) -> ParamError:
    return ParamError(f"{family.value}: requires {clause}")


def _check_sup_family(case: InequalityCase) -> InequalityCase:
    # shared hypothesis of the plain Poincare-Sobolev / Hardy block, with the
    # L^theta exponent of poincare-sobolev-lq
    fam = case.family
    if not case.p > 1.0:
        raise _fail(fam, f"p > 1 (got p={case.p})")
    if not 1.0 / case.p < case.alpha <= 1.0:
        raise _fail(fam, f"alpha in (1/p, 1] (got alpha={case.alpha}, p={case.p})")
    if case.theta is not None and not case.theta > 1.0:
        raise _fail(fam, f"theta > 1 (got theta={case.theta})")
    return case


def _check_sobolev_beta(case: InequalityCase) -> InequalityCase:
    fam = case.family
    if not case.p > 1.0:
        raise _fail(fam, f"p > 1 (got p={case.p})")
    if not 0.0 <= case.beta < 1.0:
        raise _fail(fam, f"beta in [0, 1) (got beta={case.beta})")
    if not case.beta + 1.0 / case.p < case.alpha <= 1.0:
        raise _fail(fam, f"alpha in (beta + 1/p, 1] (got alpha={case.alpha}, "
                         f"beta={case.beta}, p={case.p})")
    return case


def _check_gn(case: InequalityCase) -> InequalityCase:
    fam = case.family
    if not case.p >= 1.0:
        raise _fail(fam, f"p >= 1 (got p={case.p})")
    if not case.q > 1.0:
        raise _fail(fam, f"q > 1 (got q={case.q})")
    if not 0.0 <= case.s <= 1.0:
        raise _fail(fam, f"s in [0, 1] (got s={case.s})")
    if fam is Family.SEQ_GAGLIARDO_NIRENBERG:
        if not 0.0 < case.alpha < 1.0:
            raise _fail(fam, f"alpha in (0, 1) (got alpha={case.alpha})")
        if not 1.0 / case.q < case.beta < 1.0:
            raise _fail(fam, f"beta in (1/q, 1) (got beta={case.beta}, q={case.q})")
    else:
        if not 1.0 / case.q < case.alpha <= 1.0:
            raise _fail(fam, f"alpha in (1/q, 1] (got alpha={case.alpha}, q={case.q})")
    derived = 1.0 / (case.s / case.q + (1.0 - case.s) / case.p)
    if case.gamma is None:
        return replace(case, gamma=derived)
    rel = case.gamma * case.s / case.q + case.gamma * (1.0 - case.s) / case.p
    if abs(rel - 1.0) > _REL_TOL:
        raise _fail(fam, f"gamma*s/q + gamma*(1-s)/p = 1 (got {rel})")
    return case


def _check_ckn(case: InequalityCase) -> InequalityCase:
    fam = case.family
    if not case.p > 1.0:
        raise _fail(fam, f"p > 1 (got p={case.p})")
    if not case.q > 1.0:
        raise _fail(fam, f"q > 1 (got q={case.q})")
    if not 1.0 - 1.0 / case.q < case.alpha < 1.0:
        raise _fail(fam, f"alpha in (1 - 1/q, 1) (got alpha={case.alpha}, q={case.q})")
    if not 0.0 <= case.delta <= 1.0:
        raise _fail(fam, f"delta in [0, 1] (got delta={case.delta})")
    # when r is derived from the exponent relation, the window and p+q >= r
    # clauses hold automatically; a stored r is checked clause by clause
    inv_r = case.delta / case.p + (1.0 - case.delta) / case.q
    r_given = case.r is not None
    if not r_given:
        case = replace(case, r=1.0 / inv_r)
    if not case.r > 0.0:
        raise _fail(fam, f"r > 0 (got r={case.r})")
    if not case.p + case.q >= case.r:
        raise _fail(fam, f"p + q >= r (got p={case.p}, q={case.q}, r={case.r})")
    lo, hi = (case.r - case.q) / case.r, case.p / case.r
    if not lo - _REL_TOL <= case.delta <= hi + _REL_TOL:
        raise _fail(fam, f"delta in [(r-q)/r, p/r] = [{lo}, {hi}] (got delta={case.delta})")
    if r_given and abs(inv_r - 1.0 / case.r) > _REL_TOL:
        raise _fail(fam, f"1/r = delta/p + (1-delta)/q (got 1/r={1.0 / case.r}, "
                         f"delta/p + (1-delta)/q={inv_r})")
    c_rel = case.delta * (case.d - 1.0) + case.e * (1.0 - case.delta)
    if case.c is None:
        case = replace(case, c=c_rel)
    elif abs(case.c - c_rel) > _REL_TOL:
        raise _fail(fam, f"c = delta*(d-1) + e*(1-delta) (got c={case.c}, "
                         f"relation value {c_rel})")
    if not 1.0 + (case.d - 1.0) * case.p > 0.0:
        raise _fail(fam, f"1 + (d-1)*p > 0 (got d={case.d}, p={case.p})")
    if case.delta > 0.0 and not case.alpha > 1.0 / case.p:
        # the composed weighted-Hardy constant is finite only for alpha > 1/p
        raise _fail(fam, f"alpha > 1/p when delta > 0 (got alpha={case.alpha}, p={case.p})")
    return case


def _check_sequential(case: InequalityCase) -> InequalityCase:
    fam = case.family
    if not case.p > 1.0:
        raise _fail(fam, f"p > 1 (got p={case.p})")
    q = conjugate(case.p)
    if not 1.0 / q < case.alpha < 1.0:
        raise _fail(fam, f"alpha in (1/q, 1) with q = p/(p-1) (got alpha={case.alpha}, "
                         f"q={q})")
    if not 0.0 < case.beta < 1.0:
        raise _fail(fam, f"beta in (0, 1) (got beta={case.beta})")
    if not case.alpha > 1.0 / case.p:
        # kernel-moment positivity; the alpha window above does not imply it
        # for p < 2
        raise _fail(fam, f"alpha > 1/p (got alpha={case.alpha}, p={case.p})")
    return case


def _kernel(order: float, p: float) -> float:
    # Hoelder kernel-integral constant times Gamma(order)
    return holder_denominator(order, p) * gamma_fn(order)


def _constant_sup(case: InequalityCase, order: float, span: float) -> float:
    return span ** (order - 1.0 / case.p) / _kernel(order, case.p)


def _constant_lq(case: InequalityCase, order: float, span: float) -> float:
    return _constant_sup(case, order, span) * (case.b - case.a) ** (1.0 / case.theta)


def _constant_beta(case: InequalityCase, order: float, span: float) -> float:
    q = conjugate(case.p)
    denom = (order * q - case.beta * q - q + 1.0) ** (1.0 / q)
    return span ** (order - case.beta - 1.0 / case.p) / (denom * gamma_fn(order - case.beta))


def _chain(case: InequalityCase, order: float, span: float, p: float) -> float:
    # the Hardy-type chain: (b-a)^(1/p) span^(order - 1/p) over the kernel
    return (case.b - case.a) ** (1.0 / p) * span ** (order - 1.0 / p) / _kernel(order, p)


def _constant_hardy(case: InequalityCase, order: float, span: float) -> float:
    return _chain(case, order, span, case.p) / case.a


def _constant_weighted_hardy(case: InequalityCase, order: float, span: float) -> float:
    g = abs(case.gamma)
    return case.a ** (-g - 1.0) * case.b**g * _chain(case, order, span, case.p)


def _constant_gn(case: InequalityCase, order: float, span: float) -> float:
    # the L^q bound with exponent q on both sides, to the power s
    return _chain(case, order, span, case.q) ** case.s


def _constant_ckn(case: InequalityCase, order: float, span: float) -> float:
    if case.delta == 0.0:
        return 1.0
    # the weighted Hardy bound at weight power -d, to the power delta
    return _constant_weighted_hardy(replace(case, gamma=-case.d), order, span) ** case.delta


class _Maps(NamedTuple):
    """The arrays the sides of a family are computed from, over the last axis.

    ``v`` is the operand on ``grid`` (u, or its inner derivative for a
    sequential family), ``dv`` the derivative on the right (on the companion
    grid for a Hadamard family) and ``low`` the order-beta derivative of
    sobolev-beta.  Each is one row per function: a vector for one function,
    a block for many.
    """

    grid: Grid
    v: np.ndarray
    dv: np.ndarray
    low: np.ndarray | None = None

    def combine(self, coeffs: np.ndarray) -> "_Maps":
        # every step from u to these arrays is linear in u
        return _Maps(self.grid, coeffs @ self.v, coeffs @ self.dv,
                     None if self.low is None else coeffs @ self.low)


def _norm(m: _Maps, kind: NormKind):
    return nodal_norm(m.v, m.grid, kind)


def _sides_sup(spec, case, m):
    return _norm(m, NormKind.sup()), spec.dnorm(case, m, case.p)


def _sides_lq(spec, case, m):
    return _norm(m, NormKind.lp(case.theta)), spec.dnorm(case, m, case.p)


def _sides_beta(spec, case, m):
    return nodal_norm(m.low, m.grid, NormKind.sup()), spec.dnorm(case, m, case.p)


def _sides_hardy(spec, case, m):
    return _norm(m, NormKind.weighted_lp(case.p, -1.0)), spec.dnorm(case, m, case.p)


def _sides_weighted_hardy(spec, case, m):
    return (_norm(m, NormKind.weighted_lp(case.p, -(case.gamma + 1.0))),
            spec.dnorm(case, m, case.p, -case.gamma))


def _sides_gn(spec, case, m):
    return (_norm(m, NormKind.lp(case.gamma)),
            spec.dnorm(case, m, case.q) ** case.s
            * _norm(m, NormKind.lp(case.p)) ** (1.0 - case.s))


def _sides_ckn(spec, case, m):
    return (_norm(m, NormKind.weighted_lp(case.r, case.c)),
            spec.dnorm(case, m, case.p, case.d) ** case.delta
            * _norm(m, NormKind.weighted_lp(case.q, case.e)) ** (1.0 - case.delta))


def _sides_uncertainty(spec, case, m):
    return (_norm(m, NormKind.lp(2.0)) ** 2,
            spec.dnorm(case, m, case.p)
            * _norm(m, NormKind.weighted_lp(conjugate(case.p), 1.0)))


@dataclass(frozen=True)
class _Spec:
    """Registry record of one family; ``constant`` and ``sides`` are its shape."""

    fields: tuple[str, ...]  # required beyond family/a/b/alpha
    check: Callable[[InequalityCase], InequalityCase]  # fills in derived exponents
    constant: Callable[[InequalityCase, float, float], float]  # (case, order, span)
    sides: Callable[..., tuple]  # (record, case, _Maps) -> (lhs, rhs product)
    weighted: bool = False  # a side carries a power weight of x, so a > 0
    derivable: tuple[str, ...] = ()  # optional, derived by the check when absent
    vanishing: bool = True  # the boundary hypothesis v(a) = 0 applies
    hadamard: bool = False
    inner: str | None = None  # field holding the order of a sequential inner derivative
    order: str = "alpha"  # field holding the order of the derivative on the right
    low: str | None = None  # field holding the order of the derivative on the left

    def operand(self, case: InequalityCase, u: GridFn) -> GridFn:
        return u if self.inner is None else caputo_derivative(u, getattr(case, self.inner))

    def maps(self, case: InequalityCase, v: GridFn) -> _Maps:
        low = None
        if self.low is not None:
            beta = getattr(case, self.low)
            # order 0 is the zeroth derivative of the representation, v - v(a)
            low = (v.samples - v.samples[0] if beta == 0.0
                   else caputo_derivative(v, beta).samples)
        order = getattr(case, self.order)
        dv = hadamard_derivative(v, order) if self.hadamard else caputo_derivative(v, order)
        return _Maps(v.grid, v.samples, dv.samples, low)

    def dnorm(self, case: InequalityCase, m: _Maps, p: float, power: float = 0.0):
        # L^p norm of the derivative against the weight x^(power*p), with x
        # the physical variable: the node on the t-grid, a e^sigma on the
        # companion grid (where the plain norm is the dx/x norm)
        grid = log_companion_grid(m.grid) if self.hadamard else m.grid
        if power == 0.0:
            return nodal_norm(m.dv, grid, NormKind.lp(p))
        x = log_companion_times(m.grid) if self.hadamard else grid.nodes
        return lp_trapezoid(m.dv, grid.h, p, weights=x ** (power * p))


_PS = _Spec(("p",), _check_sup_family, _constant_sup, _sides_sup)
_HARDY = _Spec(("p",), _check_sup_family, _constant_hardy, _sides_hardy, weighted=True)
_GN = _Spec(("p", "q", "s"), _check_gn, _constant_gn, _sides_gn, derivable=("gamma",))

_STANDARD = {
    Family.POINCARE_SOBOLEV: _PS,
    Family.POINCARE_SOBOLEV_LQ: _Spec(("p", "theta"), _check_sup_family, _constant_lq,
                                      _sides_lq),
    Family.SOBOLEV_BETA: _Spec(("beta", "p"), _check_sobolev_beta, _constant_beta,
                               _sides_beta, vanishing=False, low="beta"),
    Family.HARDY: _HARDY,
    Family.WEIGHTED_HARDY: _Spec(("p", "gamma"), _check_sup_family,
                                 _constant_weighted_hardy, _sides_weighted_hardy,
                                 weighted=True),
    Family.GAGLIARDO_NIRENBERG: _GN,
    Family.CKN: _Spec(("p", "q", "delta", "d", "e"), _check_ckn, _constant_ckn, _sides_ckn,
                      weighted=True, derivable=("r", "c")),
    Family.SEQ_POINCARE_SOBOLEV: replace(_PS, fields=("beta", "p"), check=_check_sequential,
                                         inner="beta"),
    Family.SEQ_HARDY: replace(_HARDY, fields=("beta", "p"), check=_check_sequential,
                              inner="beta"),
    Family.SEQ_GAGLIARDO_NIRENBERG: replace(_GN, fields=("beta", "p", "q", "s"),
                                            inner="alpha", order="beta"),
    # Cauchy-Schwarz with the Hardy bound, so the Hardy constant
    Family.UNCERTAINTY: replace(_HARDY, sides=_sides_uncertainty),
}

#: each Hadamard family is its standard twin with the Hadamard derivative
_SPECS = {**_STANDARD, **{
    fam: replace(_STANDARD[Family(fam.value.removeprefix("hadamard-"))], hadamard=True)
    for fam in Family if fam.value.startswith("hadamard-")}}


def _check_fields(case: InequalityCase, spec: _Spec) -> None:
    fam = case.family
    used = spec.fields + ("a", "b", "alpha")
    given = case.params()
    for name in used:
        if name not in given:
            raise _fail(fam, f"field {name!r}")
    for name, value in given.items():
        if name not in used and name not in spec.derivable:
            raise ParamError(f"{fam.value}: field {name!r} is not used by this family")
        if not math.isfinite(value):
            raise _fail(fam, f"a finite {name} (got {value})")


def validate_case(case: InequalityCase) -> InequalityCase:
    """Check every hypothesis of the case's family; fill derived exponents.

    Returns the (possibly normalized) case or raises ParamError naming the
    violated clause.
    """
    fam = case.family
    spec = _SPECS.get(fam)
    if spec is None:
        raise ParamError(f"unknown family {fam!r}")
    _check_fields(case, spec)
    if not case.a < case.b:
        raise _fail(fam, f"a < b (got a={case.a}, b={case.b})")
    if (spec.hadamard or spec.weighted) and not case.a > 0.0:
        raise _fail(fam, f"a > 0 (got a={case.a})")
    return spec.check(case)


def _constant(spec: _Spec, case: InequalityCase) -> float:
    span = abs(np.log(case.b / case.a)) if spec.hadamard else case.b - case.a
    try:
        value = spec.constant(case, getattr(case, spec.order), span)
    except (OverflowError, ZeroDivisionError):  # a power out of float range
        value = math.inf
    if not np.isfinite(value) or value <= 0.0:
        raise NumericError(f"{case.family.value}: constant is not a positive finite "
                           f"number ({value})")
    return float(value)


def constant(case: InequalityCase) -> float:
    """Closed-form constant multiplying the right-hand side."""
    case = validate_case(case)
    return _constant(_SPECS[case.family], case)


def sobolev_beta_statement_constant(case: InequalityCase) -> float:
    """The statement-form constant with the extra (b-a)^(1/q) factor.

    The default :func:`constant` follows the proof's final display, which
    carries (b-a)^(alpha - beta - 1/p); this variant multiplies in the
    additional (b-a)^(1/q) of the statement so either version can be
    asserted against.
    """
    case = validate_case(case)
    if case.family is not Family.SOBOLEV_BETA:
        raise ParamError("statement constant is defined for sobolev-beta only")
    return constant(case) * (case.b - case.a) ** (1.0 / conjugate(case.p))


@dataclass(frozen=True)
class Certificate:
    """Evaluated inequality instance for one (case, function) pair."""

    case: InequalityCase
    function: str
    lhs: float
    rhs_norm_product: float
    constant: float
    rhs: float
    ratio: float
    disc_tol: float
    passed: bool
    grid_n: int


@dataclass(frozen=True)
class SweepCell:
    """One sweep entry: either a certificate or an isolated error."""

    case: InequalityCase
    function: str
    certificate: Certificate | None
    error: str | None = None


def _ratio_of(lhs, rhs):
    # lhs / rhs per row, under the caller's errstate; a row with no right-hand
    # side has ratio 0 when its left side vanishes too and inf otherwise
    if isinstance(rhs, np.ndarray):
        return np.where(rhs > 0.0, lhs / rhs, np.where(lhs == 0.0, 0.0, np.inf))
    if rhs > 0.0:
        return lhs / rhs
    return 0.0 if lhs == 0.0 else math.inf


def _coarsen(u: GridFn) -> GridFn | None:
    g = u.grid
    if g.n < 4:
        return None
    m = g.n // 2
    coarse = uniform_grid(g.a, g.b, m)
    if g.n % 2 == 0:
        samples = u.samples[::2]
    else:
        samples = np.interp(coarse.nodes, g.nodes, u.samples)
    return GridFn(coarse, samples, name=u.name)


def _check_disc_tol(disc_tol: float | None) -> None:
    if disc_tol is not None and not 0.0 <= disc_tol < math.inf:
        raise ParamError(f"disc_tol must be finite and >= 0 (got {disc_tol})")


def _check_interval(case: InequalityCase, grid: Grid) -> None:
    if grid.a != case.a or grid.b != case.b:
        raise ParamError(
            f"{case.family.value}: function is sampled on [{grid.a}, {grid.b}] "
            f"but the case interval is [{case.a}, {case.b}]"
        )


def _boundary_error(spec: _Spec, case: InequalityCase, value: float) -> HypothesisError:
    what = "function" if spec.inner is None else "inner derivative"
    return HypothesisError(
        f"{case.family.value}: {what} must vanish at a "
        f"(|value| = {abs(value):.3e} > {BOUNDARY_TOLERANCE:.0e})"
    )


def _numeric_error(case: InequalityCase, lhs: float, product: float,
                   cval: float) -> NumericError:
    return NumericError(
        f"{case.family.value}: non-finite certificate values "
        f"(lhs={lhs}, product={product}, constant={cval})"
    )


def evaluate_sides(case: InequalityCase, u: GridFn,
                   disc_tol: float | None = None) -> Certificate:
    """Evaluate both sides of the inequality for one sampled function.

    The discretization tolerance defaults to the Richardson policy
    ``1e-6 + |ratio(n) - ratio(n/2)|``; pass a finite ``disc_tol >= 0`` to
    pin it.  Raises HypothesisError when the function violates the family's
    boundary hypothesis, ParamError for invalid cases or tolerances, and
    NumericError when a side is not finite.
    """
    case = validate_case(case)
    _check_disc_tol(disc_tol)
    _check_interval(case, u.grid)
    spec = _SPECS[case.family]
    v = spec.operand(case, u)
    if spec.vanishing and abs(v.samples[0]) > BOUNDARY_TOLERANCE:
        raise _boundary_error(spec, case, v.samples[0])
    cval = _constant(spec, case)
    # a side out of float range is refused by the finiteness check below
    with np.errstate(all="ignore"):
        lhs, product = spec.sides(spec, case, spec.maps(case, v))
        rhs = cval * product
        ratio = _ratio_of(lhs, rhs)
        if disc_tol is None:
            tol = 1e-6
            coarse = _coarsen(u)
            if coarse is not None:
                m = spec.maps(case, spec.operand(case, coarse))
                lhs_c, product_c = spec.sides(spec, case, m)
                tol += abs(ratio - _ratio_of(lhs_c, cval * product_c))
        else:
            tol = float(disc_tol)
    if not np.isfinite([lhs, product, cval]).all():
        raise _numeric_error(case, lhs, product, cval)
    return Certificate(
        case=case,
        function=u.name,
        lhs=float(lhs),
        rhs_norm_product=float(product),
        constant=cval,
        rhs=float(rhs),
        ratio=float(ratio),
        disc_tol=float(tol),
        passed=bool(ratio <= 1.0 + tol),
        grid_n=u.grid.n,
    )


class BasisSides:
    """Both sides of one case for linear combinations of basis functions.

    Every step from a function u to the arrays its sides are computed from
    is linear: the operand, the derivatives and the Hadamard resampling.  So
    they are computed once per basis function, and the arrays of the
    combination with coefficients c are c @ (the basis arrays).
    :meth:`ratios` scores a block of coefficient rows with one matrix product
    per array, on the given grid only: it makes no Richardson pass.  The
    basis holds two or three arrays of (number of functions) x (n+1) floats.
    """

    def __init__(self, case: InequalityCase, basis: list[GridFn]):
        case = validate_case(case)
        grid = basis[0].grid
        _check_interval(case, grid)
        if any(u.grid != grid for u in basis):
            raise DomainError("basis functions must share one grid")
        spec = _SPECS[case.family]
        operands = [spec.operand(case, u) for u in basis]
        self.case = case
        self.constant = _constant(spec, case)
        rows = [spec.maps(case, v) for v in operands]
        self._spec = spec
        self._maps = _Maps(grid, np.array([m.v for m in rows]), np.array([m.dv for m in rows]),
                           None if spec.low is None else np.array([m.low for m in rows]))

    def ratios(self, coeffs: np.ndarray) -> tuple[np.ndarray, FracineqError | None]:
        """The ratio of each row of ``coeffs``, checked in row order.

        Each row gets the checks of :func:`evaluate_sides`: the boundary
        hypothesis, then finite sides.  Returns the ratios of the rows before
        the first row that fails a check, and the error that
        :func:`evaluate_sides` raises for that row (None when every row
        passes).
        """
        spec, case, cval = self._spec, self.case, self.constant
        m = self._maps.combine(np.asarray(coeffs, dtype=float))
        with np.errstate(all="ignore"):  # rows out of float range are refused below
            lhs, product = spec.sides(spec, case, m)
            ratios = _ratio_of(lhs, cval * product)
        at_a = m.v[:, 0]
        unbounded = spec.vanishing & (np.abs(at_a) > BOUNDARY_TOLERANCE)
        bad = np.flatnonzero(unbounded | ~(np.isfinite(lhs) & np.isfinite(product)))
        if bad.size == 0:
            return ratios, None
        i = bad[0]
        if unbounded[i]:
            return ratios[:i], _boundary_error(spec, case, at_a[i])
        return ratios[:i], _numeric_error(case, float(lhs[i]), float(product[i]), cval)


def sweep(family: Family, cases: list[InequalityCase], corpus: list[GridFn],
          disc_tol: float | None = None) -> list[SweepCell]:
    """Evaluate the full cases x corpus cross product, lattice-major.

    Per-cell errors are captured in the cell instead of aborting the sweep,
    so one invalid case or one hypothesis violation leaves the remaining
    cells intact.  A SizeError concerns the grid, not the cell, and a
    NumericError a computation, not the input; both are raised.
    ``disc_tol`` is passed to :func:`evaluate_sides`; an invalid value
    raises ParamError before any cell is evaluated.
    """
    _check_disc_tol(disc_tol)
    cells: list[SweepCell] = []
    for case in cases:
        for u in corpus:
            try:
                if case.family is not family:
                    raise ParamError(
                        f"case family {case.family.value} does not match sweep "
                        f"family {family.value}"
                    )
                cells.append(SweepCell(case, u.name, evaluate_sides(case, u, disc_tol)))
            except (SizeError, NumericError):
                raise
            except FracineqError as exc:
                cells.append(SweepCell(case, u.name, None,
                                       error=f"{type(exc).__name__}: {exc}"))
    return cells
