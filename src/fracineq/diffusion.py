"""Space-fractional diffusion on an interval and its a-priori energy bound.

The evolution u_t + (right derivative)(left derivative) u = 0 is
discretized variationally: the stiffness matrix is K = D^T Q D with D the
discrete fractional-derivative matrix restricted to functions vanishing at
the left endpoint and Q the trapezoid quadrature diagonal.  By construction
K is symmetric positive semidefinite and the discrete energy identity
u^T K u = ||d^alpha u||^2 holds exactly, so implicit Euler dissipates the
energy I(t) = ||u||^2 unconditionally.

For alpha < 1, D is the lower-triangular Toeplitz band b of the L1 scheme,
so K is assembled from b in O(n^2) without forming D.  With 1-based
unknowns i and diagonal offset d >= 0,

    K[i, i+d] = h * sum_{k=d..n-i} b[k] b[k-d]  -  (h/2) * b[n-i] b[n-i-d],

one cumulative sum per diagonal, each value written to both triangles so
K is exactly symmetric.  The order-1 finite differences keep the dense
product D^T Q D.  K is dense at every order, so n is limited to
grids.MAX_DENSE_N.

Implicit Euler factors M + dt K once (the Cholesky factorization checks
its input for finite values) and each step is a LAPACK triangular solve
against that factor, with no further finiteness scan.  The initial data
are checked for finite samples once, when the problem is built, and the
step count T/dt is bounded by MAX_STEPS.

The decay-rate constant lambda = (2*alpha - 1) * Gamma(alpha)^2 / (b-a)^(2*alpha)
comes from the L^2 Poincare-Sobolev bound with p = 2; integrating the
resulting differential inequality gives I(t) <= I(0) exp(-2 lambda t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import DomainError, NumericError, SolveError
from .grids import Grid, GridFn, check_dense
from .operators import OperatorMatrix, operator_matrix
from .special import gamma_fn

__all__ = [
    "DiffusionProblem",
    "EnergyTrace",
    "AprioriReport",
    "decay_rate",
    "assemble_stiffness",
    "mass_diagonal",
    "step",
    "run",
    "check_apriori",
    "MAX_STEPS",
]

#: the largest step count T/dt a problem may ask for; the trace holds
#: 2 (MAX_STEPS + 1) floats
MAX_STEPS = 10**7


@dataclass(frozen=True)
class DiffusionProblem:
    """Initial-value problem data for the fractional diffusion run."""

    grid: Grid
    alpha: float
    u0: GridFn
    T: float
    dt: float

    def __post_init__(self):
        if not 0.5 < self.alpha <= 1.0:
            raise DomainError(f"diffusion requires alpha in (1/2, 1] (got {self.alpha})")
        if self.u0.grid != self.grid:
            raise DomainError("u0 must be sampled on the problem grid")
        if not np.all(np.isfinite(self.u0.samples)):
            raise DomainError("u0 must have finite samples")
        if self.u0.samples[0] != 0.0:
            raise DomainError("u0 must vanish at the left endpoint")
        if not self.dt > 0.0:
            raise DomainError(f"requires dt > 0 (got {self.dt})")
        if not self.dt <= self.T < math.inf:
            raise DomainError(f"requires finite T >= dt (got T={self.T}, dt={self.dt})")
        if not self.T / self.dt <= MAX_STEPS:
            raise DomainError(
                f"T/dt = {self.T / self.dt:g} exceeds the limit of {MAX_STEPS} steps"
            )

    @property
    def nsteps(self) -> int:
        """The number of implicit Euler steps from 0 to T."""
        return int(math.floor(self.T / self.dt + 1e-12))


@dataclass(frozen=True)
class EnergyTrace:
    """Time series of the squared L^2 norm, with the decay-rate constant."""

    times: np.ndarray
    energy: np.ndarray
    lam: float

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        energy = np.array(self.energy, dtype=float)
        if times.shape != energy.shape:
            raise DomainError("times and energy must have equal length")
        times.setflags(write=False)
        energy.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "energy", energy)

    @property
    def bound(self) -> np.ndarray:
        """The a-priori bound I(0) exp(-2 lambda t) at each recorded time."""
        return self.energy[0] * np.exp(-2.0 * self.lam * self.times)


def decay_rate(grid: Grid, alpha: float) -> float:
    """lambda = (2*alpha - 1) * Gamma(alpha)^2 / (b - a)^(2*alpha).

    It rounds to 0 when (b - a)^(2*alpha) overflows, and raises NumericError
    when that power underflows to 0.
    """
    try:
        return (2.0 * alpha - 1.0) * gamma_fn(alpha) ** 2 / (grid.b - grid.a) ** (2.0 * alpha)
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        raise NumericError(f"decay rate overflows (b - a = {grid.b - grid.a})") from None


def _quadrature_diagonal(grid: Grid) -> np.ndarray:
    q = np.full(grid.n + 1, grid.h)
    q[0] = q[-1] = 0.5 * grid.h
    return q


def mass_diagonal(grid: Grid) -> np.ndarray:
    """Trapezoid mass diagonal for the unknowns u_1..u_n (u_0 removed)."""
    return _quadrature_diagonal(grid)[1:]


def assemble_stiffness(grid: Grid, alpha: float) -> np.ndarray:
    """K = D^T Q D with the derivative matrix restricted to u(a) = 0.

    K is exactly symmetric and positive semidefinite; u^T K u equals the
    discrete squared L^2 norm of the order-alpha derivative of the function
    with samples (0, u_1, ..., u_n).  For alpha < 1 it is built from the
    Toeplitz band by the diagonal identity in the module docstring.  Raises
    SolveError when an entry is not finite, as on a grid so fine that the
    weights' products overflow.
    """
    if not 0.5 < alpha <= 1.0:
        raise DomainError(f"diffusion requires alpha in (1/2, 1] (got {alpha})")
    check_dense(grid, "the diffusion stiffness")
    with np.errstate(all="ignore"):  # an overflow is refused below
        k = _stiffness(grid, operator_matrix(grid, alpha, "caputo"))
    # min and max propagate nan, and they make no (n, n) temporary
    if not (math.isfinite(k.min()) and math.isfinite(k.max())):
        raise SolveError(f"stiffness is not finite (h = {grid.h:g})")
    return k


def _stiffness(grid: Grid, op: OperatorMatrix) -> np.ndarray:
    if op.band is None:
        d_restricted = op.weights[:, 1:]
        q = _quadrature_diagonal(grid)
        k = d_restricted.T @ (q[:, None] * d_restricted)
        return 0.5 * (k + k.T)
    n, h = grid.n, grid.h
    b = op.band[:n]
    k = np.empty((n, n))
    flat = k.reshape(-1)
    for d in range(n):
        # products b[m] b[m-d] for m = d..n-1; unknown p (0-based) takes m = n-1-p
        prod = b[d:] * b[:n - d]
        diagonal = (h * np.cumsum(prod) - 0.5 * h * prod)[::-1]
        flat[d:n * (n - d):n + 1] = diagonal
        flat[d * n::n + 1] = diagonal
    return k


def _factor(system: np.ndarray, mass: np.ndarray, dt: float) -> tuple[np.ndarray, bool]:
    # Cholesky factor of M + dt K, formed in place of the stiffness K in ``system``
    system *= dt
    system.flat[::system.shape[0] + 1] += mass
    try:
        # K is exactly symmetric, so the Fortran-ordered transpose is the same
        # matrix and is factored in place
        return scipy.linalg.cho_factor(system.T, overwrite_a=True)
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: inf or nan entries
        raise SolveError(f"implicit Euler solve failed: {exc}") from exc


def _solve(factor: tuple[np.ndarray, bool], rhs: np.ndarray) -> np.ndarray:
    # the factor was checked finite once, when it was computed
    c, lower = factor
    x, info = scipy.linalg.lapack.dpotrs(c, rhs, lower=lower, overwrite_b=True)
    if info != 0:  # pragma: no cover
        raise SolveError(f"implicit Euler solve failed: dpotrs info {info}")
    return x


def step(u: np.ndarray, stiffness: np.ndarray, mass: np.ndarray,
         dt: float) -> np.ndarray:
    """One implicit Euler step: solve (M + dt K) u_next = M u.

    ``stiffness`` must be exactly symmetric, as ``assemble_stiffness``
    returns it; it is not modified.
    """
    if dt <= 0.0:
        raise DomainError(f"requires dt > 0 (got {dt})")
    return _solve(_factor(np.array(stiffness, dtype=float), mass, dt), mass * u)


def run(problem: DiffusionProblem) -> EnergyTrace:
    """Step from 0 to T recording I(t_k) = discrete squared L^2 norm."""
    grid = problem.grid
    mass = mass_diagonal(grid)
    nsteps = problem.nsteps
    u = problem.u0.samples[1:].copy()
    times = problem.dt * np.arange(nsteps + 1)
    energy = np.empty(nsteps + 1)
    energy[0] = float(u @ (mass * u))
    factor = _factor(assemble_stiffness(grid, problem.alpha), mass, problem.dt)
    for j in range(1, nsteps + 1):
        u = _solve(factor, mass * u)
        energy[j] = float(u @ (mass * u))
    return EnergyTrace(times, energy, decay_rate(grid, problem.alpha))


@dataclass(frozen=True)
class AprioriReport:
    """Outcome of the energy-estimate checks on one trace."""

    monotone_ok: bool
    max_monotone_violation: float  # relative per-step increase, worst case
    first_violation_index: int | None
    exp_bound_ok: bool
    max_exp_excess: float  # worst I(t_k) - bound(t_k), <= 0 when satisfied
    rel_slack: float
    tol_exp: float


def check_apriori(trace: EnergyTrace, rel_slack: float = 1e-12,
                  tol_exp: float = 0.05) -> AprioriReport:
    """Check monotone decay and the exponential bound I(0) e^(-2 lambda t).

    Monotonicity allows a per-step relative slack for rounding; the
    exponential bound carries the multiplicative tolerance (1 + tol_exp).
    """
    if trace.energy.size == 0:
        raise DomainError("empty trace")
    energy = trace.energy
    prev = energy[:-1]
    increase = energy[1:] - prev
    scale = np.maximum(np.abs(prev), 1e-300)
    rel_increase = increase / scale
    bad = np.nonzero(rel_increase > rel_slack)[0]
    monotone_ok = bad.size == 0
    excess = energy - trace.bound * (1.0 + tol_exp)
    return AprioriReport(
        monotone_ok=monotone_ok,
        max_monotone_violation=float(rel_increase.max()) if rel_increase.size else 0.0,
        first_violation_index=int(bad[0] + 1) if not monotone_ok else None,
        exp_bound_ok=bool(np.all(excess <= 0.0)),
        max_exp_excess=float(excess.max()),
        rel_slack=rel_slack,
        tol_exp=tol_exp,
    )
