"""Uniform grids on an interval, sampled functions, and trapezoid norms.

Everything here is immutable and safe to share between threads: arrays that
nothing can write to are shared, others copied once.  All quadrature is
composite trapezoid on nodal values of the full integrand, which keeps the
norms in the same second-order accuracy class as the operator discretizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, SizeError

__all__ = [
    "MAX_N",
    "MAX_DENSE_N",
    "check_dense",
    "Grid",
    "GridFn",
    "NormKind",
    "uniform_grid",
    "refine",
    "norm",
    "nodal_norm",
    "norm_weights",
    "trapezoid",
    "trapezoid_weights",
    "lp_trapezoid",
]

#: the most subintervals a grid may have; an operator of order below 1 on
#: the largest grid holds 128 MiB and peaks at 288 MiB while applying
MAX_N = 2**22

#: the most subintervals for a dense matrix: the order-1 finite differences
#: and the diffusion stiffness (537 MB at n = 8192)
MAX_DENSE_N = 8192


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [a, b] into n subintervals (n + 1 nodes).

    Nodes are t_i = a + i*(b-a)/n with both endpoints stored exactly.
    Hashable by (a, b, n); the node array is derived.
    """

    a: float
    b: float
    n: int

    def __post_init__(self):
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "n", int(self.n))
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"grid requires finite endpoints (got a={self.a}, b={self.b})")
        if not self.a < self.b:
            raise DomainError(f"grid requires a < b (got a={self.a}, b={self.b})")
        if self.n < 2:
            raise DomainError(f"grid requires n >= 2 (got n={self.n})")
        if self.n > MAX_N:
            raise SizeError(f"grid requires n <= {MAX_N} (got n={self.n})")
        h = (self.b - self.a) / self.n
        nodes = self.a + np.arange(self.n + 1) * h
        nodes[self.n] = self.b
        if not np.all(np.diff(nodes) > 0.0):
            raise DomainError("grid nodes are not strictly increasing")
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n


def check_dense(grid: Grid, what: str) -> None:
    """Raise SizeError when ``what``, a dense matrix on ``grid``, is too large."""
    if grid.n > MAX_DENSE_N:
        raise SizeError(
            f"{what} is a dense matrix, limited to n <= {MAX_DENSE_N} (got n={grid.n})"
        )


def _read_only(values) -> np.ndarray:
    """``values`` as a read-only float array: kept if nothing can write to it, else copied."""
    base = getattr(values, "base", None)
    if (type(values) is np.ndarray and values.dtype == float and not values.flags.writeable
            and (base is None or isinstance(base, np.ndarray) and not base.flags.writeable)):
        return values
    values = np.array(values, dtype=float)
    values.setflags(write=False)
    return values


@dataclass(frozen=True, eq=False)
class GridFn:
    """Real-valued function sampled at the nodes of a grid."""

    grid: Grid
    samples: np.ndarray
    name: str = "u"

    def __post_init__(self):
        samples = _read_only(self.samples)
        if samples.shape != (self.grid.n + 1,):
            raise DomainError(
                f"samples must have length {self.grid.n + 1} (got {samples.shape})"
            )
        object.__setattr__(self, "samples", samples)

    def _like(self, samples: np.ndarray) -> "GridFn":
        samples.setflags(write=False)  # built here, so handed over without a copy
        return GridFn(self.grid, samples, name=self.name)

    def __add__(self, other: "GridFn") -> "GridFn":
        if other.grid != self.grid:
            raise DomainError("grid mismatch")
        return self._like(self.samples + other.samples)

    def __sub__(self, other: "GridFn") -> "GridFn":
        if other.grid != self.grid:
            raise DomainError("grid mismatch")
        return self._like(self.samples - other.samples)

    def __rmul__(self, c: float) -> "GridFn":
        return self._like(float(c) * self.samples)


@dataclass(frozen=True)
class NormKind:
    """Selector for the norm computed by :func:`norm`.

    kind is one of "lp" (plain L^p), "weighted" (L^p against the power
    weight x^gamma applied to the function), "logweighted" (L^p against the
    measure dx/x), or "sup".
    """

    kind: str
    p: float | None = None
    gamma: float | None = None

    @staticmethod
    def lp(p: float) -> "NormKind":
        return NormKind("lp", float(p))

    @staticmethod
    def weighted_lp(p: float, gamma: float) -> "NormKind":
        return NormKind("weighted", float(p), float(gamma))

    @staticmethod
    def log_weighted_lp(p: float) -> "NormKind":
        return NormKind("logweighted", float(p))

    @staticmethod
    def sup() -> "NormKind":
        return NormKind("sup")


@lru_cache(maxsize=64)
def uniform_grid(a: float, b: float, n: int) -> Grid:
    """Uniform grid on [a, b] with n subintervals; spacing h = (b-a)/n.

    Memoized: grids are immutable, so repeated requests share one instance.
    """
    return Grid(a, b, n)


def refine(g: Grid) -> Grid:
    """Grid on the same interval with 2n subintervals.

    Even-indexed nodes of the result coincide bit-exactly with the input
    nodes: the refined spacing is an exact halving of the coarse spacing.
    """
    return Grid(g.a, g.b, 2 * g.n)


def trapezoid(values: np.ndarray, h: float) -> float | np.ndarray:
    """Composite trapezoid rule for nodal values on a uniform grid.

    Sums over the last axis: one vector gives a float, a block of rows one
    value per row, each equal bit for bit to the rule on that row alone.
    """
    values = np.asarray(values, dtype=float)
    # a vector's endpoints are scalars: 0-d arrays would make the sum slower
    ends = values[0] + values[-1] if values.ndim == 1 else values[..., 0] + values[..., -1]
    total = h * (values.sum(axis=-1) - 0.5 * ends)
    return float(total) if values.ndim == 1 else total


def trapezoid_weights(grid: Grid) -> np.ndarray:
    """The weight of each node in the composite trapezoid rule: h, and h/2 at both ends."""
    q = np.full(grid.n + 1, grid.h)
    q[0] = q[-1] = 0.5 * grid.h
    return q


def lp_trapezoid(values: np.ndarray, h: float, p: float,
                 weights: np.ndarray | None = None) -> float | np.ndarray:
    """(integral of |values|^p * weights)^(1/p) by composite trapezoid.

    Over the last axis, like :func:`trapezoid`; ``weights`` holds one value
    per node.
    """
    integrand = np.abs(values) ** p
    if weights is not None:
        integrand = integrand * weights
    total = trapezoid(integrand, h)
    return total ** (1.0 / p) if integrand.ndim == 1 else scalar_powers(total, 1.0 / p)


def scalar_powers(x: np.ndarray, exponent: float) -> np.ndarray:
    """Each value to the power, as a lone float: np.power on an array may round differently."""
    return np.array([value**exponent for value in x.tolist()])


def norm(u: GridFn, kind: NormKind) -> float:
    """Norm of a grid function.

    L^p norms integrate the full integrand |u|^p * weight by composite
    trapezoid on the nodes; the sup norm is the exact maximum of |samples|.
    Weighted and log-weighted kinds require a > 0.
    """
    return nodal_norm(u.samples, u.grid, kind)


def nodal_norm(values: np.ndarray, grid: Grid, kind: NormKind) -> float | np.ndarray:
    """:func:`norm` of nodal values on ``grid``, over the last axis.

    One vector of n+1 values gives a float, a block of rows one norm per row.
    """
    if kind.kind == "sup":
        peak = np.abs(values).max(axis=-1)
        return float(peak) if peak.ndim == 0 else peak
    return lp_trapezoid(values, grid.h, kind.p, norm_weights(grid, kind))


def norm_weights(grid: Grid, kind: NormKind) -> np.ndarray | None:
    """The weight per node of an L^p kind of :func:`norm`, None for plain L^p."""
    p = kind.p
    if p is None or p < 1.0:
        raise DomainError(f"norm exponent must satisfy p >= 1 (got {p})")
    if kind.kind == "lp":
        return None
    if kind.kind == "weighted":
        if grid.a <= 0.0:
            raise DomainError("weighted L^p norm requires a > 0")
        return grid.nodes ** (kind.gamma * p)
    if kind.kind == "logweighted":
        if grid.a <= 0.0:
            raise DomainError("log-weighted L^p norm requires a > 0")
        return 1.0 / grid.nodes
    raise DomainError(f"unknown norm kind {kind.kind!r}")
