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

    K[i, i+d] = h * sum_{k=d..n-i} b[k] b[k-d]  -  (h/2) * b[n-i] b[n-i-d].

The sums are built row by row, from the last unknown to the first: row i
adds the products b[n-i] b[n-i-d], d = 0..n-i, to one running sum per
diagonal, in the order of a cumulative sum along that diagonal, and each
row is written to both triangles so K is exactly symmetric.  The order-1
finite differences keep the dense product D^T Q D.  K is dense at every
order, so n is limited to grids.MAX_DENSE_N.

Implicit Euler factors M + dt K = U^T U once (the Cholesky factorization
checks its input for finite values), with no further finiteness scan.
Order 1 steps from 0 to T with one LAPACK dpotrs solve per step, with
which the order-1 report fixtures were recorded.

Below order 1 the run needs only the energies.  With z = M^1/2 u0 and the
symmetric R = M^1/2 (M + dt K)^-1 M^1/2, whose eigenvalues lie in (0, 1],
the k-th energy is I_k = z^T R^(2k) z.  m Lanczos steps on R from z, with
full reorthogonalization, give a tridiagonal T with eigenvalues theta_i and
first eigenvector components s_i, and the m-point Gauss rule
I_k = ||z||^2 sum w_i theta_i^(2k), w_i = s_i^2, for every k at once; it
is exact for k < m (Golub & Meurant, Matrices, Moments and Quadrature
with Applications, 2010).  Each Lanczos step is one pair of BLAS triangular solves against U.
The run stops at the first of: no energy at the probe steps k = 1, 2, 4,
..., nsteps moves by more than 1e-14 relative from one Lanczos step to the
next; a breakdown (beta = 0); or m = min(n, nsteps + 1), where the rule is
exact.  On a smooth initial datum at n = 2048 that is 33 to 35 solves for
500 steps and 47 for 20,000.  The basis holds m n floats, allocated 16
rows at a time.  The energies agree with 500 potrs steps on the same K
to within 5e-13 relative, and with the recursion stepped in 30-digit
arithmetic to within 4e-13.  The power theta^(2k) multiplies the rounding
of a Ritz value near 1 by 2k, so long runs lose accuracy: 2e-11 at n = 16
with 31,309 steps, where stepping keeps 1e-12.  The initial data are checked
for finite samples once, when the problem is built, and the step count
T/dt is bounded by MAX_STEPS.

The decay-rate constant lambda = (2*alpha - 1) * Gamma(alpha)^2 / (b-a)^(2*alpha)
comes from the L^2 Poincare-Sobolev bound with p = 2; integrating the
resulting differential inequality gives I(t) <= I(0) exp(-2 lambda t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, SolveError
from .grids import Grid, GridFn, check_dense, trapezoid_weights
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
#: the Lanczos run below order 1 stops once no probe energy moves by more than this,
#: relative, from one step to the next
_GAUSS_RTOL = 1e-14
#: the Lanczos basis is allocated this many rows at a time
_BLOCK = 16
#: the most (step, node) powers formed at once when the energies are evaluated
_POWER_CHUNK = 2**16


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
        """The number of implicit Euler steps from 0 to T.

        A T/dt within 1e-12 T/dt below an integer counts as that integer, so
        a decimal T = k dt whose quotient rounds just below k takes k steps.
        """
        steps = self.T / self.dt
        return int(math.floor(steps + 1e-12 * steps))


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


def mass_diagonal(grid: Grid) -> np.ndarray:
    """Trapezoid mass diagonal for the unknowns u_1..u_n (u_0 removed)."""
    return trapezoid_weights(grid)[1:]


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
        q = trapezoid_weights(grid)
        k = d_restricted.T @ (q[:, None] * d_restricted)
        return 0.5 * (k + k.T)
    n, h = grid.n, grid.h
    b = op.band[:n]
    k = np.empty((n, n))
    # s[d] sums b[m'] b[m'-d] over m' = d..m: unknown p (0-based) takes m = n-1-p
    s = np.zeros(n)
    for m in range(n):
        p = n - 1 - m
        prod = b[m] * b[m::-1]
        s[:m + 1] += prod
        row = h * s[:m + 1] - (0.5 * h) * prod
        k[p, p:] = row
        k[p:, p] = row
    return k


def _factor(system: np.ndarray, mass: np.ndarray, dt: float) -> tuple[np.ndarray, bool]:
    # Cholesky factor of M + dt K, formed in place of the stiffness K in ``system``;
    # scipy.linalg loads on the first factorization, not on import
    import scipy.linalg

    system *= dt
    system.flat[::system.shape[0] + 1] += mass
    try:
        # K is exactly symmetric, so the Fortran-ordered transpose is the same
        # matrix and is factored in place
        return scipy.linalg.cho_factor(system.T, overwrite_a=True)
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: inf or nan entries
        raise SolveError(f"implicit Euler solve failed: {exc}") from exc


def _solve(factor: tuple[np.ndarray, bool], rhs: np.ndarray, alpha: float) -> np.ndarray:
    # the factor was checked finite once, when it was computed; rhs is overwritten
    import scipy.linalg.blas
    import scipy.linalg.lapack

    c, lower = factor
    if alpha == 1.0:
        x, info = scipy.linalg.lapack.dpotrs(c, rhs, lower=lower, overwrite_b=True)
        if info != 0:  # pragma: no cover
            raise SolveError(f"implicit Euler solve failed: dpotrs info {info}")
        return x
    trsv = scipy.linalg.blas.dtrsv
    return trsv(c, trsv(c, rhs, lower=lower, trans=1, overwrite_x=True),
                lower=lower, trans=0, overwrite_x=True)


def step(u: np.ndarray, stiffness: np.ndarray, mass: np.ndarray,
         dt: float, *, alpha: float) -> np.ndarray:
    """One implicit Euler step: solve (M + dt K) u_next = M u.

    ``stiffness`` must be exactly symmetric, as ``assemble_stiffness(grid,
    alpha)`` returns it; it is not modified.  Each call factors M + dt K and
    solves with the factor as ``run`` does: one LAPACK dpotrs solve at order
    1, so a loop of steps equals ``run`` bit for bit there, and two BLAS
    triangular solves below order 1, where ``run`` takes the energies from a
    Gauss rule and a loop of steps agrees with it to about 1e-12 relative.
    """
    if dt <= 0.0:
        raise DomainError(f"requires dt > 0 (got {dt})")
    return _solve(_factor(np.array(stiffness, dtype=float), mass, dt), mass * u, alpha)


def _gauss_energies(factor: tuple[np.ndarray, bool], mass: np.ndarray, u0: np.ndarray,
                    energy: np.ndarray, alpha: float) -> None:
    # energy[k] = I_k = z^T R^(2k) z for k = 1..nsteps by the Gauss rule of m Lanczos
    # steps on R = M^1/2 (M + dt K)^-1 M^1/2 from z = M^1/2 u0.  The run starts from
    # z / (max M^1/2 * max |u0|), whose entries are at most 1, and the scale is
    # squared last, so that only an energy beyond the float range overflows
    import scipy.linalg

    nsteps = energy.size - 1
    umax = float(np.max(np.abs(u0)))
    if umax == 0.0:
        energy[1:] = 0.0
        return
    root = np.sqrt(mass)
    rmax = float(root.max())
    z = (root / rmax) * (u0 / umax)
    zz = float(z @ z)
    probes = np.array(sorted({1 << j for j in range(nsteps.bit_length())} | {nsteps}))
    limit = min(z.size, nsteps + 1)  # the rule is exact at m = nsteps + 1 or m = n
    # the Lanczos vectors, _BLOCK rows to an array: a new array per _BLOCK steps,
    # so that no row is copied as the basis grows
    basis = [np.empty((_BLOCK, z.size))]
    basis[0][0] = z / math.sqrt(zz)
    diag: list[float] = []
    off: list[float] = []
    before = math.inf
    for m in range(1, limit + 1):
        r = root * _solve(factor, root * basis[-1][(m - 1) % _BLOCK], alpha)
        coef = np.zeros(m)
        for _ in range(2):  # full reorthogonalization: Gram-Schmidt against every row, twice
            for start in range(0, m, _BLOCK):
                rows = basis[start // _BLOCK][:m - start]
                c = rows @ r
                r -= c @ rows
                coef[start:start + c.size] += c
        diag.append(float(coef[-1]))
        theta, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
        weight = vecs[0] ** 2
        probe = theta ** (2 * probes[:, None]) @ weight
        beta = math.sqrt(float(r @ r))
        if (m == limit or beta == 0.0
                or np.all(np.abs(probe - before) <= _GAUSS_RTOL * probe)):
            break
        before = probe
        off.append(beta)
        if m % _BLOCK == 0:
            basis.append(np.empty((_BLOCK, z.size)))
        basis[-1][m % _BLOCK] = r / beta
    span = max(1, _POWER_CHUNK // theta.size)
    for start in range(1, nsteps + 1, span):
        k = np.arange(start, min(start + span, nsteps + 1))
        energy[start:start + k.size] = theta ** (2 * k[:, None]) @ weight
    tail = energy[1:]
    tail *= zz
    np.sqrt(tail, out=tail)
    tail *= rmax
    tail *= umax
    np.square(tail, out=tail)


def run(problem: DiffusionProblem) -> EnergyTrace:
    """I(t_k) = discrete squared L^2 norm of the implicit Euler iterates, t_k = k dt.

    Order 1 steps from 0 to T with one LAPACK dpotrs solve per step.  Below
    order 1 the energies come from the Gauss quadrature rule of a Lanczos
    run on the same Cholesky factor, as the module docstring describes:
    one pair of triangular solves per Lanczos step, about 35 at n = 2048,
    where stepping would take one per time step.  They agree with stepping
    to about 1e-12 relative, not bit for bit.
    """
    grid = problem.grid
    mass = mass_diagonal(grid)
    nsteps = problem.nsteps
    u = problem.u0.samples[1:].copy()
    times = problem.dt * np.arange(nsteps + 1)
    energy = np.empty(nsteps + 1)
    energy[0] = float(u @ (mass * u))
    factor = _factor(assemble_stiffness(grid, problem.alpha), mass, problem.dt)
    if problem.alpha == 1.0:
        for j in range(1, nsteps + 1):
            u = _solve(factor, mass * u, problem.alpha)
            energy[j] = float(u @ (mass * u))
    else:
        _gauss_energies(factor, mass, u, energy, problem.alpha)
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
