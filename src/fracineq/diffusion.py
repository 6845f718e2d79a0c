"""Space-fractional diffusion on an interval and its a-priori energy bound.

The evolution u_t + (right derivative)(left derivative) u = 0 is
discretized variationally: the stiffness matrix is K = D^T Q D with D the
discrete fractional-derivative matrix restricted to functions vanishing at
the left endpoint and Q the trapezoid quadrature diagonal.  By construction
K is symmetric positive semidefinite and the discrete energy identity
u^T K u = ||d^alpha u||^2 holds exactly, so implicit Euler dissipates the
energy I(t) = ||u||^2 unconditionally.

For alpha < 1 the restricted D is T = weights[1:, 1:], the lower-triangular
Toeplitz matrix of the L1 band b, and K = T^T M T with M the mass diagonal
(Q without node 0).  assemble_stiffness builds K from b in O(n^2) without
forming T.  With 0-based unknowns p, diagonal offset d >= 0 and m = n-1-p,

    K[p, p+d] = h * sum_{k=d..m} b[k] b[k-d]  -  (h/2) * b[m] b[m-d].

The sums are built row by row, from the last unknown to the first: row p
adds the products b[m] b[m-d], d = 0..m, to one running sum per diagonal.
Every product and sum is carried exactly as a double-double (Dekker's
two-product, Knuth's two-sum) and each entry is rounded once, after the
multiplication by h, so every entry is within 1 ulp of the exact K of the
float band; each row is written to both triangles, so K is exactly
symmetric.  The order-1 finite differences keep the dense product D^T Q D.
K is dense at every order, so n is limited to grids.MAX_DENSE_N.

Order 1 factors M + dt K = U^T U once (the Cholesky factorization checks
its input for finite values) and steps from 0 to T with one LAPACK dpotrs
solve per step, with which the order-1 report fixtures were recorded.

Below order 1 the run needs only the energies, and it builds no (n, n)
array.  With z = M^1/2 u0 and R = M^1/2 (M + dt K)^-1 M^1/2 the k-th energy
is I_k = z^T R^(2k) z.  Since K = T^T M T,

    R = P (P + dt I)^-1,   P = G G^T,   G = M^1/2 T^-1 M^-1/2.

T^-1 is lower-triangular Toeplitz too.  G and G^T are applied through the
"inverse-caputo" operator, whose band is the first column of (T / b_0)^-1
(see fracineq.operators), and its mirror, by the operators' convolution: a
cached FFT spectrum on large grids.  m Lanczos steps on P from z, with
full reorthogonalization, give a tridiagonal matrix with eigenvalues mu_i
and first eigenvector components s_i, and the m-point Gauss rule

    I_k = ||z||^2 sum_i w_i exp(-2k log1p(dt / mu_i)),   w_i = s_i^2,

for every k at once (Golub & Meurant, Matrices, Moments and Quadrature with
Applications, 2010).  The slow modes, which carry the energy of a long run,
are the largest eigenvalues of P: Lanczos finds them first and to full
relative accuracy, and log1p keeps 1 - mu / (mu + dt) at full relative
accuracy, so the error does not grow with the step count.  A Ritz value
mu <= 0 contributes 0.  The run works with the band scaled to b_0 = 1 and
M to max M = 1, where only dt b_0^2 remains.  It stops at the first of: no
energy at the probe steps k = 1, 2, 4, ..., nsteps moves by more than 1e-14
relative from one Lanczos step to the next; a breakdown (beta = 0); or
m = n, where the Krylov space is exhausted.  It does not stop at
m = nsteps + 1: f(mu)^(2k) is rational, not a polynomial, so the rule is
not exact there.  On the benchmark problem (n = 2048, 500 steps) that is 19
to 22 Lanczos steps of two convolutions each, about 4.5 ms in all; at
n = 8192, about 14 ms.  The basis holds m n floats,
allocated 16 rows at a time.  The energies agree with the singular value
decomposition of C = M^1/2 T M^-1/2, with M^-1/2 K M^-1/2 = C^T C, to
within 6e-13 relative on every test problem, 500 steps at n = 512 and
10^5 steps included, and with the recursion stepped in 30-digit
arithmetic from the band to within 3e-15 at n = 32.  The initial data are checked for finite
samples once, when the problem is built, and the step count T/dt is
bounded by MAX_STEPS.

The decay-rate constant lambda = (2*alpha - 1) * Gamma(alpha)^2 / (b-a)^(2*alpha)
comes from the L^2 Poincare-Sobolev bound with p = 2; integrating the
resulting differential inequality gives I(t) <= I(0) exp(-2 lambda t).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, NumericError, SolveError
from .grids import Grid, GridFn, _read_only, check_dense, trapezoid_weights
from .operators import operator_matrix
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
        _check_order(self.alpha)
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
    """Time series of the squared L^2 norm, with the decay-rate constant.

    ``times`` and ``energy`` are kept when read-only over read-only memory,
    as ``run`` hands them over, and copied otherwise.
    """

    times: np.ndarray
    energy: np.ndarray
    lam: float

    def __post_init__(self):
        for name in ("times", "energy"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))
        if self.times.shape != self.energy.shape:
            raise DomainError("times and energy must have equal length")

    @property
    def bound(self) -> np.ndarray:
        """The a-priori bound I(0) exp(-2 lambda t) at each recorded time."""
        return self.energy[0] * np.exp(-2.0 * self.lam * self.times)


def _check_order(alpha: float) -> None:
    if not 0.5 < alpha <= 1.0:
        raise DomainError(f"diffusion requires alpha in (1/2, 1] (got {alpha})")


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
    Toeplitz band by the diagonal identity in the module docstring, every
    entry within 1 ulp of the exact product of the float band.  Raises
    SolveError when an entry may not be finite, as on a grid so fine that
    the weights' products overflow.
    """
    _check_order(alpha)
    check_dense(grid, "the diffusion stiffness")
    if alpha < 1.0:
        return _toeplitz_stiffness(grid.h, _band(grid, alpha))
    d_restricted = operator_matrix(grid, alpha, "caputo").weights[:, 1:]
    q = trapezoid_weights(grid)
    with np.errstate(all="ignore"):  # an overflow is refused below
        k = d_restricted.T @ (q[:, None] * d_restricted)
        k = 0.5 * (k + k.T)
    # min and max propagate nan, and they make no (n, n) temporary
    if not (math.isfinite(k.min()) and math.isfinite(k.max())):
        raise SolveError(f"stiffness is not finite (h = {grid.h:g})")
    return k


def _band(grid: Grid, alpha: float) -> np.ndarray:
    # the band b of T = weights[1:, 1:] below order 1, refused when K = T^T M T may
    # overflow: no entry of K exceeds h sum b^2 in magnitude
    b = operator_matrix(grid, alpha, "caputo").band[:grid.n]
    with np.errstate(over="ignore"):  # an overflow is refused below
        bound = grid.h * float(b @ b)
    if not math.isfinite(bound):
        raise SolveError(f"stiffness is not finite (h = {grid.h:g})")
    return b


#: Dekker's splitting constant 2^27 + 1: x = hi + lo with hi and lo of 26 bits
_SPLIT = 134217729.0


def _split(x):
    c = _SPLIT * x
    hi = c - (c - x)
    return hi, x - hi


def _two_product(x, x_hi, x_lo, y, y_hi, y_lo):
    # (p, e) with p = fl(x y) and p + e = x y exactly (Dekker)
    p = x * y
    return p, ((x_hi * y_hi - p) + x_hi * y_lo + x_lo * y_hi) + x_lo * y_lo


def _add(a_hi, a_lo, b_hi, b_lo):
    # the double-double sum of two double-doubles: Knuth's two-sum of the leading
    # parts, the trailing parts added, and the result renormalized
    s = a_hi + b_hi
    v = s - a_hi
    e = ((a_hi - (s - v)) + (b_hi - v)) + (a_lo + b_lo)
    hi = s + e
    return hi, e - (hi - s)


def _toeplitz_stiffness(h: float, b: np.ndarray) -> np.ndarray:
    # the diagonal identity of the module docstring in double-double arithmetic: row m
    # adds the exact products b[m] b[m-d] to one running sum per diagonal d, the entry is
    # that sum less half the row's product, times h, rounded once.  The band is scaled
    # by a power of two near 1 / b[0] and h by its square, both exactly, so that no
    # split or product overflows or underflows
    n = b.size
    e = math.frexp(float(b[0]))[1]
    b = np.ldexp(b, -e)
    h2 = math.ldexp(h, 2 * e)
    h2_hi, h2_lo = _split(h2)
    rev = b[::-1].copy()
    rev_hi, rev_lo = _split(rev)
    s_hi = np.zeros(n)
    s_lo = np.zeros(n)
    k = np.empty((n, n))
    for m in range(n):
        p = n - 1 - m
        x = float(b[m])
        x_hi, x_lo = _split(x)
        prod, err = _two_product(x, x_hi, x_lo, rev[p:], rev_hi[p:], rev_lo[p:])
        prod *= 0.5
        err *= 0.5
        a_hi, a_lo = _add(s_hi[:m + 1], s_lo[:m + 1], prod, err)
        s_hi[:m + 1], s_lo[:m + 1] = _add(a_hi, a_lo, prod, err)
        a_hi_hi, a_hi_lo = _split(a_hi)
        row, row_err = _two_product(a_hi, a_hi_hi, a_hi_lo, h2, h2_hi, h2_lo)
        row += row_err + h2 * a_lo
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


def _solve(factor: tuple[np.ndarray, bool], rhs: np.ndarray) -> np.ndarray:
    # the factor was checked finite once, when it was computed; rhs is overwritten
    import scipy.linalg.lapack

    c, lower = factor
    x, info = scipy.linalg.lapack.dpotrs(c, rhs, lower=lower, overwrite_b=True)
    if info != 0:  # pragma: no cover
        raise SolveError(f"implicit Euler solve failed: dpotrs info {info}")
    return x


def step(u: np.ndarray, stiffness: np.ndarray, mass: np.ndarray,
         dt: float, *, alpha: float) -> np.ndarray:
    """One implicit Euler step: solve (M + dt K) u_next = M u.

    ``stiffness`` must be exactly symmetric, as ``assemble_stiffness(grid,
    alpha)`` returns it; it is not modified.  ``alpha`` is the order it was
    assembled at, checked as ``assemble_stiffness`` checks it.  Each call
    factors M + dt K and solves with one LAPACK dpotrs solve, at every
    order.  At order 1 ``run`` does the same, so a loop of steps equals it
    bit for bit; below order 1 ``run`` takes the energies from a Gauss rule
    without K, and a loop of steps agrees with it to about 1e-12 relative.
    """
    _check_order(alpha)
    if dt <= 0.0:
        raise DomainError(f"requires dt > 0 (got {dt})")
    return _solve(_factor(np.array(stiffness, dtype=float), mass, dt), mass * u)


def _inverse_gram(grid: Grid, alpha: float,
                  root: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    # v -> P v for P = G G^T, G = D T^-1 D^-1 with D = ``root`` (M^1/2 up to a scalar)
    # and T the Toeplitz matrix of the caputo band scaled to b[0] = 1.  T^-1 and T^-T
    # are applied as the inverse-caputo operator and its mirror
    n = grid.n
    inverse = operator_matrix(grid, alpha, "inverse-caputo")
    transpose = replace(inverse, mirrored=True)
    mass = root * root
    x = np.zeros(n + 1)

    def product(v: np.ndarray) -> np.ndarray:
        # the mirror reads x[:n] and returns T^-T x[:n] in y[:n]; the operator reads
        # x[1:] and returns T^-1 x[1:] in y[1:]
        x[:n] = root * v
        y = transpose.apply(x)
        x[1:] = y[:n] / mass
        return root * inverse.apply(x)[1:]

    return product


def _gauss_energies(product: Callable[[np.ndarray], np.ndarray], shift: float,
                    z: np.ndarray, energy: np.ndarray) -> None:
    # energy[k] = z^T R^(2k) z for k = 1..nsteps, R = P (P + shift I)^-1, by the Gauss
    # rule of m Lanczos steps on the symmetric positive definite P = ``product`` from z
    import scipy.linalg

    nsteps = energy.size - 1
    zz = float(z @ z)
    probes = np.array(sorted({1 << j for j in range(nsteps.bit_length())} | {nsteps}))
    # the Lanczos vectors, _BLOCK rows to an array: a new array per _BLOCK steps,
    # so that no row is copied as the basis grows
    basis = [np.empty((_BLOCK, z.size))]
    basis[0][0] = z / math.sqrt(zz)
    diag: list[float] = []
    off: list[float] = []
    before = math.inf
    for m in range(1, z.size + 1):
        r = product(basis[-1][(m - 1) % _BLOCK])
        coef = np.zeros(m)
        for _ in range(2):  # full reorthogonalization: Gram-Schmidt against every row, twice
            for start in range(0, m, _BLOCK):
                rows = basis[start // _BLOCK][:m - start]
                c = rows @ r
                r -= c @ rows
                coef[start:start + c.size] += c
        diag.append(float(coef[-1]))
        mu, vecs = scipy.linalg.eigh_tridiagonal(diag, off)
        weight = vecs[0] ** 2
        # log R per node, -inf where a Ritz value is not positive: exp(k rate) is
        # R^k with 1 - R = shift / (mu + shift) at full relative accuracy
        rate = np.full(mu.size, -math.inf)
        positive = mu > 0.0
        with np.errstate(over="ignore"):  # shift / mu = inf gives R = 0
            rate[positive] = -np.log1p(shift / mu[positive])
        probe = np.exp((2 * probes[:, None]) * rate) @ weight
        beta = math.sqrt(float(r @ r))
        if (m == z.size or beta == 0.0
                or np.all(np.abs(probe - before) <= _GAUSS_RTOL * probe)):
            break
        before = probe
        off.append(beta)
        if m % _BLOCK == 0:
            basis.append(np.empty((_BLOCK, z.size)))
        basis[-1][m % _BLOCK] = r / beta
    span = max(1, _POWER_CHUNK // mu.size)
    for start in range(1, nsteps + 1, span):
        k = np.arange(start, min(start + span, nsteps + 1))
        energy[start:start + k.size] = np.exp((2 * k[:, None]) * rate) @ weight
    energy[1:] *= zz


def _energies_below_one(grid: Grid, alpha: float, mass: np.ndarray, u0: np.ndarray,
                        dt: float, energy: np.ndarray) -> None:
    # The h of M = h D^2 cancels from R, and T = b[0] U with U of unit diagonal, so
    # R = P (P + dt b[0]^2 I)^-1 with P built from D and U alone.  The run starts from
    # D u0 / max |u0|, whose entries are at most 1, and the scale is squared last, so
    # that only an energy beyond the float range overflows
    check_dense(grid, "the diffusion stiffness")
    b = _band(grid, alpha)
    umax = float(np.max(np.abs(u0)))
    if umax == 0.0:
        energy[1:] = 0.0
        return
    root = np.sqrt(mass)
    rmax = float(root.max())
    root /= rmax
    b0 = float(b[0])
    _gauss_energies(_inverse_gram(grid, alpha, root), dt * b0 * b0,
                    root * (u0 / umax), energy)
    tail = energy[1:]
    np.sqrt(tail, out=tail)
    tail *= rmax
    tail *= umax
    np.square(tail, out=tail)


def run(problem: DiffusionProblem) -> EnergyTrace:
    """I(t_k) = discrete squared L^2 norm of the implicit Euler iterates, t_k = k dt.

    Order 1 steps from 0 to T with one LAPACK dpotrs solve per step on the
    Cholesky factor of M + dt K.  Below order 1 the energies come from the
    Gauss rule of a Lanczos run on P = G G^T, as the module docstring
    describes: two convolutions with the inverse band per Lanczos step,
    about 20 at n = 2048, and no (n, n) array.  They agree with the exact
    implicit Euler energies of the float band to about 1e-12 relative, not
    bit for bit with stepping.  Raises NumericError when the initial energy
    overflows and SolveError when the stiffness would.
    """
    grid = problem.grid
    mass = mass_diagonal(grid)
    nsteps = problem.nsteps
    u = problem.u0.samples[1:]
    times = np.arange(nsteps + 1, dtype=float)
    times *= problem.dt
    times.setflags(write=False)  # frozen arrays go to the trace without a copy
    energy = np.empty(nsteps + 1)
    with np.errstate(over="ignore"):  # an overflow is refused below
        energy[0] = float(u @ (mass * u))
    if not math.isfinite(energy[0]):
        raise NumericError(f"initial energy overflows (h = {grid.h:g})")
    if problem.alpha == 1.0:
        factor = _factor(assemble_stiffness(grid, problem.alpha), mass, problem.dt)
        for j in range(1, nsteps + 1):
            u = _solve(factor, mass * u)
            energy[j] = float(u @ (mass * u))
    else:
        _energies_below_one(grid, problem.alpha, mass, u, problem.dt, energy)
    energy.setflags(write=False)
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
