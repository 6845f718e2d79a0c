"""Uniform grids on an interval, sampled functions, and trapezoid norms.

Everything here is immutable after construction and safe to share between
threads.  All quadrature is composite trapezoid on nodal values of the full
integrand, which keeps the norms in the same second-order accuracy class as
the operator discretizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError

__all__ = [
    "Grid",
    "GridFn",
    "NormKind",
    "uniform_grid",
    "refine",
    "norm",
    "trapezoid",
    "lp_trapezoid",
]


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
        if not self.a < self.b:
            raise DomainError(f"grid requires a < b (got a={self.a}, b={self.b})")
        if self.n < 2:
            raise DomainError(f"grid requires n >= 2 (got n={self.n})")
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


@dataclass(frozen=True, eq=False)
class GridFn:
    """Real-valued function sampled at the nodes of a grid."""

    grid: Grid
    samples: np.ndarray
    name: str = "u"

    def __post_init__(self):
        samples = np.array(self.samples, dtype=float)
        if samples.shape != (self.grid.n + 1,):
            raise DomainError(
                f"samples must have length {self.grid.n + 1} (got {samples.shape})"
            )
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    def __add__(self, other: "GridFn") -> "GridFn":
        if other.grid != self.grid:
            raise DomainError("grid mismatch")
        return GridFn(self.grid, self.samples + other.samples, name=self.name)

    def __sub__(self, other: "GridFn") -> "GridFn":
        if other.grid != self.grid:
            raise DomainError("grid mismatch")
        return GridFn(self.grid, self.samples - other.samples, name=self.name)

    def __rmul__(self, c: float) -> "GridFn":
        return GridFn(self.grid, float(c) * self.samples, name=self.name)


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


def trapezoid(values: np.ndarray, h: float) -> float:
    """Composite trapezoid rule for nodal values on a uniform grid."""
    values = np.asarray(values, dtype=float)
    return float(h * (values.sum() - 0.5 * (values[0] + values[-1])))


def lp_trapezoid(values: np.ndarray, h: float, p: float,
                 weights: np.ndarray | None = None) -> float:
    """(integral of |values|^p * weights)^(1/p) by composite trapezoid."""
    integrand = np.abs(values) ** p
    if weights is not None:
        integrand = integrand * weights
    return trapezoid(integrand, h) ** (1.0 / p)


def norm(u: GridFn, kind: NormKind) -> float:
    """Norm of a grid function.

    L^p norms integrate the full integrand |u|^p * weight by composite
    trapezoid on the nodes; the sup norm is the exact maximum of |samples|.
    Weighted and log-weighted kinds require a > 0.
    """
    if kind.kind == "sup":
        return float(np.max(np.abs(u.samples)))
    p = kind.p
    if p is None or p < 1.0:
        raise DomainError(f"norm exponent must satisfy p >= 1 (got {p})")
    g = u.grid
    if kind.kind == "lp":
        weights = None
    elif kind.kind == "weighted":
        if g.a <= 0.0:
            raise DomainError("weighted L^p norm requires a > 0")
        weights = g.nodes ** (kind.gamma * p)
    elif kind.kind == "logweighted":
        if g.a <= 0.0:
            raise DomainError("log-weighted L^p norm requires a > 0")
        weights = 1.0 / g.nodes
    else:
        raise DomainError(f"unknown norm kind {kind.kind!r}")
    return lp_trapezoid(u.samples, g.h, p, weights)
