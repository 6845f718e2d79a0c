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
constant and the sides of one chain of inequalities.  The sides are a table
of ``_Norm`` records, the left norm and then the right-hand factors, each a
norm of one map raised to a power; the certificates and the direct
sharpness solve of :class:`BasisSides` both read it.  A Hadamard record is
its standard twin with the Hadamard derivative, which lives on the
companion grid sigma = log(t/a), and with span = log(b/a) in place of
b - a in the constant.  A sequential record applies its shape to the inner
derivative v = D^inner u, which must then vanish at a.

One private stage checks and scores blocks of rows for :func:`sweep`,
``evaluate_sides`` and :class:`BasisSides`.  It scores every row of a block,
and a row that fails the boundary check keeps that error; no row depends on
its block, nor a sweep cell on the run of cases that shares its operators.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, fields, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import (DomainError, FracineqError, HypothesisError, NumericError, ParamError,
                     SizeError)
from .grids import (MAX_N, Grid, GridFn, lp_trapezoid, scalar_powers, trapezoid_weights,
                    uniform_grid)
from .operators import apply_operator, log_companion_grid, log_companion_times
# targets that perfbench/tracer.py wraps here, although no certificate calls them
from .grids import norm  # noqa: F401
from .operators import caputo_derivative, hadamard_derivative  # noqa: F401
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
        return {name: value for name in _PARAMS if (value := getattr(self, name)) is not None}


_PARAMS = tuple(f.name for f in fields(InequalityCase) if f.name != "family")


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
    if not case.gamma >= 1.0:  # the left norm's exponent; met within the tolerance above
        raise _fail(fam, f"gamma >= 1 (got gamma={case.gamma})")
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
    # (b/a)^g times the Hardy constant: a^(-g-1) alone overflows on a tiny interval
    g = abs(case.gamma)
    return (case.b / case.a) ** g * _chain(case, order, span, case.p) / case.a


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
    sobolev-beta.  Each holds one row per function.  ``norms`` memoizes their
    norms by a term's (map, p, g), for the cases of a run that share a norm.
    """

    grid: Grid
    v: np.ndarray
    dv: np.ndarray
    low: np.ndarray | None
    norms: dict

    def combine(self, coeffs: np.ndarray) -> "_Maps":
        # every step from u to these arrays is linear in u
        return _Maps(self.grid, coeffs @ self.v, coeffs @ self.dv,
                     None if self.low is None else coeffs @ self.low, {})


class _Norm(NamedTuple):
    """One norm of a side, raised to ``power``: the norm of a ``_Maps`` field.

    ``map`` names the field (``v``, ``low`` or ``dv``), ``p`` is the
    exponent, None for the sup norm, and the weight is x^(g p), with x the
    physical variable at the nodes of the map.
    """

    map: str
    p: float | None = None
    g: float = 0.0
    power: float = 1.0


@dataclass(frozen=True)
class _Spec:
    """Registry record of one family; ``constant`` and ``terms`` are its shape."""

    fields: tuple[str, ...]  # required beyond family/a/b/alpha
    check: Callable[[InequalityCase], InequalityCase]  # fills in derived exponents
    constant: Callable[[InequalityCase, float, float], float]  # (case, order, span)
    terms: Callable[[InequalityCase], tuple[_Norm, ...]]  # the left norm, then the factors
    weighted: bool = False  # a side carries a power weight of x, so a > 0
    derivable: tuple[str, ...] = ()  # optional, derived by the check when absent
    vanishing: bool = True  # the boundary hypothesis v(a) = 0 applies
    hadamard: bool = False
    inner: str | None = None  # field holding the order of a sequential inner derivative
    order: str = "alpha"  # field holding the order of the derivative on the right
    low: str | None = None  # field holding the order of the derivative on the left

    def key(self, case: InequalityCase) -> tuple:
        # all that the operand and the maps of a case depend on, with the grid
        return (case.a, case.b) + tuple(getattr(case, name)
                                        for name in (self.inner, self.order, self.low) if name)

    def operand(self, case: InequalityCase, grid: Grid, u: np.ndarray) -> np.ndarray:
        # the samples u, one row per function, or their inner derivative
        if self.inner is None:
            return u
        return apply_operator(grid, u, getattr(case, self.inner), "caputo")[1]

    def maps(self, case: InequalityCase, grid: Grid, v: np.ndarray) -> _Maps:
        # each operator applied once to the block of operands v
        low = None
        if self.low is not None:
            beta = getattr(case, self.low)
            # order 0 is the zeroth derivative of the representation, v - v(a)
            low = v - v[:, :1] if beta == 0.0 else apply_operator(grid, v, beta, "caputo")[1]
        kind = "hadamard-derivative" if self.hadamard else "caputo"
        dv = apply_operator(grid, v, getattr(case, self.order), kind)[1]
        return _Maps(grid, v, dv, low, {})

    def weights(self, m: _Maps, term: _Norm) -> tuple[Grid, np.ndarray | None]:
        # the grid of the term's map and its weight x^(g p), None for g = 0,
        # with x the physical variable: the node on the t-grid, a e^sigma on
        # the companion grid of a Hadamard derivative, where the plain norm is
        # the dx/x norm
        companion = self.hadamard and term.map == "dv"
        grid = log_companion_grid(m.grid) if companion else m.grid
        if term.g == 0.0:
            return grid, None
        x = log_companion_times(m.grid) if companion else grid.nodes
        return grid, x ** (term.g * term.p)

    def norm(self, m: _Maps, term: _Norm) -> np.ndarray:
        # the term's norm of each row: the peak, or the trapezoid L^p norm
        values = getattr(m, term.map)
        if term.p is None:
            return np.abs(values).max(axis=-1)
        if term.p < 1.0:
            raise DomainError(f"norm exponent must satisfy p >= 1 (got {term.p})")
        grid, weights = self.weights(m, term)
        return lp_trapezoid(values, grid.h, term.p, weights)


_PS = _Spec(("p",), _check_sup_family, _constant_sup, lambda c: (_Norm("v"), _Norm("dv", c.p)))
_HARDY = _Spec(("p",), _check_sup_family, _constant_hardy,
               lambda c: (_Norm("v", c.p, -((c.gamma or 0.0) + 1.0)),
                          _Norm("dv", c.p, -(c.gamma or 0.0))), weighted=True)
_GN = _Spec(("p", "q", "s"), _check_gn, _constant_gn,
            lambda c: (_Norm("v", c.gamma), _Norm("dv", c.q, 0.0, c.s),
                       _Norm("v", c.p, 0.0, 1.0 - c.s)), derivable=("gamma",))

_STANDARD = {
    Family.POINCARE_SOBOLEV: _PS,
    Family.POINCARE_SOBOLEV_LQ: _Spec(("p", "theta"), _check_sup_family, _constant_lq,
                                      lambda c: (_Norm("v", c.theta), _Norm("dv", c.p))),
    Family.SOBOLEV_BETA: _Spec(("beta", "p"), _check_sobolev_beta, _constant_beta,
                               lambda c: (_Norm("low"), _Norm("dv", c.p)), vanishing=False,
                               low="beta"),
    Family.HARDY: _HARDY,
    Family.WEIGHTED_HARDY: replace(_HARDY, fields=("p", "gamma"),
                                   constant=_constant_weighted_hardy),
    Family.GAGLIARDO_NIRENBERG: _GN,
    Family.CKN: _Spec(("p", "q", "delta", "d", "e"), _check_ckn, _constant_ckn,
                      lambda c: (_Norm("v", c.r, c.c), _Norm("dv", c.p, c.d, c.delta),
                                 _Norm("v", c.q, c.e, 1.0 - c.delta)),
                      weighted=True, derivable=("r", "c")),
    Family.SEQ_POINCARE_SOBOLEV: replace(_PS, fields=("beta", "p"), check=_check_sequential,
                                         inner="beta"),
    Family.SEQ_HARDY: replace(_HARDY, fields=("beta", "p"), check=_check_sequential,
                              inner="beta"),
    Family.SEQ_GAGLIARDO_NIRENBERG: replace(_GN, fields=("beta", "p", "q", "s"),
                                            inner="alpha", order="beta"),
    # Cauchy-Schwarz with the Hardy bound, so the Hardy constant
    Family.UNCERTAINTY: replace(_HARDY, terms=lambda c: (
        _Norm("v", 2.0, 0.0, 2.0), _Norm("dv", c.p), _Norm("v", conjugate(c.p), 1.0))),
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
        with np.errstate(all="ignore"):  # a numpy product out of float range is inf
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


def _check_disc_tol(disc_tol: float | None) -> None:
    if disc_tol is not None and not 0.0 <= disc_tol < math.inf:
        raise ParamError(f"disc_tol must be finite and >= 0 (got {disc_tol})")


def _check_interval(case: InequalityCase, grid: Grid) -> None:
    if grid.a != case.a or grid.b != case.b:
        raise ParamError(f"{case.family.value}: function is sampled on [{grid.a}, {grid.b}] "
                         f"but the case interval is [{case.a}, {case.b}]")


def _side(spec: _Spec, m: _Maps, terms) -> np.ndarray:
    # the product of the norm powers of a side, in order; a power 0 is left out
    out = None
    for term in terms:
        if term.power != 0.0:
            key = term[:3]
            x = m.norms.get(key)
            if x is None:
                x = m.norms[key] = spec.norm(m, term)
            x = x if term.power == 1.0 else scalar_powers(x, term.power)
            out = x if out is None else out * x
    return out


def _sides(spec: _Spec, case: InequalityCase, m: _Maps, cval: float):
    # lhs, rhs norm product and ratio of each row (x/0 is inf, 0/0 is 0)
    left, *factors = spec.terms(case)
    lhs, product = _side(spec, m, [left]), _side(spec, m, factors)
    rhs = cval * product
    ratio = lhs / rhs
    if not (rhs > 0.0).all():
        ratio = np.where(rhs > 0.0, ratio, np.where(lhs == 0.0, 0.0, np.inf))
    return lhs, product, ratio


def _score(spec: _Spec, case: InequalityCase, at_a: np.ndarray,
           maps: Callable[[], _Maps], cval: float | None = None):
    """The certificate stage: the checks and the sides of a block of rows.

    ``at_a`` holds each row's operand value at a; ``maps()`` builds the maps
    of every row, called once a row passes the boundary check and the
    constant, computed unless given, is known.  Returns lhs, rhs norm product
    and ratio of every row (none if no row is scored), each row's error or
    None, and the constant.  A row that fails the boundary check keeps that
    error; an error of the constant or of the sides is every other row's,
    and nothing is raised.
    """
    what = "function" if spec.inner is None else "inner derivative"
    errors = [HypothesisError(f"{case.family.value}: {what} must vanish at a (|value| = "
                              f"{abs(x):.3e} > {BOUNDARY_TOLERANCE:.0e})")
              if spec.vanishing and abs(x) > BOUNDARY_TOLERANCE else None
              for x in at_a.tolist()]
    lhs = product = ratio = np.empty(0)
    if None in errors:
        try:
            cval = _constant(spec, case) if cval is None else cval
            with np.errstate(all="ignore"):  # a side out of float range is refused below
                lhs, product, ratio = _sides(spec, case, maps(), cval)
        except FracineqError as exc:
            return lhs, product, ratio, [error or exc for error in errors], cval
        for i, (left, right) in enumerate(zip(lhs.tolist(), product.tolist())):
            if errors[i] is None and not (math.isfinite(left) and math.isfinite(right)):
                errors[i] = NumericError(f"{case.family.value}: non-finite certificate values "
                                         f"(lhs={left}, product={right}, constant={cval})")
    return lhs, product, ratio, errors, cval


def _certificates(spec: _Spec, cases: list[InequalityCase], fns: list[GridFn],
                  disc_tol: float | None) -> list[list[Certificate | FracineqError]]:
    """The certificates, or row errors, of a run of cases over functions on one grid.

    The cases of a run share their operators (``_Spec.key``), so the
    operand and the maps of every row are built once, the maps by the first
    case that scores a row, and each case is scored against them.  Then,
    unless ``disc_tol`` is given, the same for the coarse copies of the
    rows: the Richardson pass, built once the fine maps are released.
    Returns each case's cells, in order.  Every error is a cell, SizeError
    and NumericError included; nothing is raised.
    """
    g = fns[0].grid
    u = np.array([f.samples for f in fns])
    try:
        _check_interval(cases[0], g)
        v = spec.operand(cases[0], g, u)
    except FracineqError as exc:
        return [[exc] * len(fns) for _ in cases]
    maps = functools.cache(lambda: spec.maps(cases[0], g, v))
    scores = [_score(spec, case, v[:, 0], maps) for case in cases]
    maps.cache_clear()
    del v  # released before the coarse maps are built
    tols = [np.full(len(ratio), 1e-6 if disc_tol is None else float(disc_tol))
            for _, _, ratio, _, _ in scores]
    if disc_tol is None and g.n >= 4 and any(map(len, tols)):
        coarse = uniform_grid(g.a, g.b, g.n // 2)  # every other node; interpolated for odd n
        x = (u[:, ::2] if g.n % 2 == 0
             else np.array([np.interp(coarse.nodes, g.nodes, row) for row in u]))
        with np.errstate(all="ignore"):
            # no check fails here that passed on the fine grid: 2h only shrinks h^-alpha
            m = spec.maps(cases[0], coarse, spec.operand(cases[0], coarse, x))
            for case, (_, _, ratio, _, cval), tol in zip(cases, scores, tols):
                if len(tol):
                    tol += np.abs(ratio - _sides(spec, case, m, cval)[2])
    for case, (lhs, product, ratio, cells, cval), tol in zip(cases, scores, tols):
        sides = zip(lhs.tolist(), product.tolist(), ratio.tolist(), tol.tolist())
        for i, (left, right, r, t) in enumerate(sides):
            if cells[i] is None:
                cells[i] = Certificate(case, fns[i].name, left, right, cval, cval * right, r,
                                       t, r <= 1.0 + t, g.n)
    return [cells for _, _, _, cells, _ in scores]


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
    [[result]] = _certificates(_SPECS[case.family], [case], [u], disc_tol)
    if isinstance(result, FracineqError):
        raise result
    return result


class BasisSides:
    """Both sides of one case for linear combinations of basis functions.

    Every step from u to the arrays of its sides is linear, so a combination
    with coefficients c has the arrays c @ (the basis arrays).
    """

    def __init__(self, case: InequalityCase, basis: list[GridFn]):
        case = validate_case(case)
        if not basis:
            raise DomainError("a basis needs at least one function")
        _check_interval(case, basis[0].grid)
        if any(u.grid != basis[0].grid for u in basis):
            raise DomainError("basis functions must share one grid")
        spec = _SPECS[case.family]
        grid = basis[0].grid
        v = spec.operand(case, grid, np.array([u.samples for u in basis]))
        self.case, self.constant, self._spec = case, _constant(spec, case), spec
        self._maps = spec.maps(case, grid, v)

    def ratio(self, coeffs: np.ndarray) -> float:
        """The ratio of the combination with coefficients ``coeffs``.

        Raises the error that evaluate_sides raises for that function.
        """
        m = self._maps.combine(np.asarray(coeffs, dtype=float)[None, :])
        _, _, ratio, [error], _ = _score(self._spec, self.case, m.v[:, 0], lambda: m,
                                         self.constant)
        if error is not None:
            raise error
        return float(ratio[0])

    def quotient(self) -> tuple | None:
        """The sides as a left norm over a product of weighted norms, or None.

        The ratio is left^power over a constant times the product of the
        factors to their powers (``_Spec.terms``).  A factor of power 0 is
        left out, and a factor that is the left norm (the same map, exponent
        and weight) cancels, which divides the other powers by the left power
        less its own.  Then the ratio is an increasing function of left / prod
        factor_k^delta_k, with powers delta_k that sum to 1; the result is
        None if no factor remains (the ratio is constant) or the divisor is not
        positive.  Returns (left, left_w, theta, rights): the basis rows of the
        left map, the weight of each node in the left norm to its power, the
        left exponent theta (None for a sup norm), and a (right, right_w, p_k,
        delta_k) tuple per factor.  Each weight is the trapezoid weight times
        the power weight, so coefficients c give factor_k^p_k = sum right_w
        |c @ right|^p_k, and left = max |c @ left| or left^theta = sum left_w
        |c @ left|^theta.
        """
        spec, m = self._spec, self._maps
        left, *factors = spec.terms(self.case)
        factors = [term for term in factors if term.power != 0.0]
        rest = [term for term in factors if term[:3] != left[:3]]
        divisor = left.power - sum(term.power for term in factors if term[:3] == left[:3])
        if not rest or not divisor > 0.0:
            return None

        def form(term):
            grid, weights = spec.weights(m, term)
            q = trapezoid_weights(grid)
            return getattr(m, term.map), q if weights is None else q * weights

        left_map, left_w = form(left)
        return (left_map, None if left.p is None else left_w, left.p,
                tuple(form(term) + (term.p, term.power / divisor) for term in rest))


#: the most samples a sweep block holds per array, those of the largest grid
_BLOCK_SAMPLES = MAX_N + 1


def sweep(family: Family, cases: list[InequalityCase], corpus: list[GridFn],
          disc_tol: float | None = None) -> list[SweepCell]:
    """Evaluate the full cases x corpus cross product, lattice-major.

    Per-cell errors are captured in the cell instead of aborting the sweep,
    so one invalid case or one hypothesis violation leaves the remaining
    cells intact.  Each case is validated once.  Consecutive valid cases
    that share their orders form a run, which scores the corpus in blocks
    of consecutive functions on one grid, at most MAX_N + 1 samples per
    array, so each operator is applied once per run and block.  A SizeError
    concerns the grid, not the cell, and a NumericError a computation, not
    the input: once a run is scored, its first such cell, in case order and
    then corpus order, is raised.  An invalid ``disc_tol`` raises ParamError
    before any cell is evaluated.
    """
    _check_disc_tol(disc_tol)
    blocks = []
    for grid, run in itertools.groupby(corpus, key=lambda u: u.grid):
        run, size = list(run), max(1, _BLOCK_SAMPLES // (grid.n + 1))
        blocks += [run[i:i + size] for i in range(0, len(run), size)]
    checked = []  # each case and its validated form, or its error
    for case in cases:
        try:
            if case.family is not family:
                raise ParamError(f"case family {case.family.value} does not match sweep "
                                 f"family {family.value}")
            checked.append((case, validate_case(case)))
        except ParamError as exc:
            checked.append((case, exc))

    def key(item):  # an invalid case is a run of its own
        valid = item[1]
        return valid if isinstance(valid, ParamError) else _SPECS[family].key(valid)

    cells: list[SweepCell] = []
    for _, group in itertools.groupby(checked, key=key):
        given, run = zip(*group)
        # each case's cells, block after block
        results = ([[run[0]] * len(corpus)] if isinstance(run[0], ParamError)
                   else [list(itertools.chain(*parts)) for parts in zip(*[
                       _certificates(_SPECS[family], list(run), block, disc_tol)
                       for block in blocks])])
        for r in itertools.chain(*results):  # in case order, then corpus order
            if isinstance(r, (SizeError, NumericError)):
                raise r
        cells += [SweepCell(case, u.name, None, error=f"{type(r).__name__}: {r}")
                  if isinstance(r, FracineqError) else SweepCell(case, u.name, r)
                  for case, result in zip(given, results) for u, r in zip(corpus, result)]
    return cells
