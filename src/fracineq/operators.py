"""Fractional operators on uniform grids.

All left-sided operators are discretized by product integration: the data is
replaced by its piecewise-linear interpolant and the weakly singular kernel
is integrated exactly on each cell (closed-form moments).  This yields the
classical product-trapezoid rule for the fractional integral

    (I^a u)(t_n) ~= h^a / Gamma(a+2) * sum_j w_{n,j} u_j,

and the L1 scheme for the Caputo derivative of order 0 < a < 1,

    (d^a u)(t_n) ~= h^-a / Gamma(2-a) * sum_j (u_{j+1} - u_j)
                     ((n-j)^(1-a) - (n-j-1)^(1-a)).

Order a = 1 routes to classical finite differences (central in the
interior, second-order one-sided at the endpoints), honouring I^0 u = u and
D^1 u = u'.

Derivative outputs at the left endpoint are 0 for a < 1: the scheme's first
cell gives values ~ (t-a)^(1-a) which vanish as t -> a.

Each public operator function applies the :class:`OperatorMatrix` of its
kind; the Hadamard derivative of order 1, the limit t u'(t), applies the
order-1 caputo kind and resamples.  The Riemann-Liouville kind carries the
exact derivative of u(a) in its boundary column; the right-sided kind is the
left one mirrored at every order, so order 1 gives -u'.

Hadamard operators are evaluated through the exact substitution
sigma = log(t/a), which turns the logarithmic kernel into the standard
power kernel on a companion grid uniform in sigma.  Their outputs live on
that companion grid; use :func:`from_log_grid` to resample back when nodal
values on the original grid are wanted.

Every left-sided scheme of order below 1 is a convolution quadrature
(Lubich, "Discretized fractional calculus", SIAM J. Math. Anal. 17, 1986):
a lower-triangular Toeplitz band, one boundary column and a zero row 0.  An
operator stores those O(n) parts and applies the band by direct convolution
on small grids and by a cached real-FFT spectrum on large ones, to one vector
or to each row of a block at once.  The dense
(n+1)^2 weight matrix is assembled only on request, except for the order-1
finite differences, which are kept dense up to grids.MAX_DENSE_N.
Operators are immutable and kept in a least-recently-used cache bounded by
the bytes of their arrays, so batch evaluations over function corpora reuse
them.

The kind "inverse-caputo", of order 0 < a < 1, has no public function: it
is the inverse of the caputo operator's restriction to nodes 1..n, scaled
by its diagonal.  With T = weights[1:, 1:] the lower-triangular Toeplitz
matrix of the L1 band b, T^-1 is lower-triangular Toeplitz too, and the
kind's band is g = (T / b_0)^-1 e_1, with column 0 zero.  g is the
reciprocal of the power series a = b / b_0, found by Newton's iteration
(Kung, Numer. Math. 22, 1974): if a g = 1 + x^m r mod x^(2m), then
g - x^m g r is the reciprocal to 2m terms.  Each of the log2 n doublings
takes r and g r from one zero-padded real-FFT product each, so g costs
O(n log n).  Since b_0 > 0 > b_j for every j >= 1, every term of the
forward recursion g_k = sum_{j>=1} (-b_j) g_(k-j) / b_0 is >= 0 and g > 0
(Commenges & Monsion, IEEE Trans. Automat. Control 29, 1984).  The Newton
g agrees with that recursion in 30-digit arithmetic to within 3e-14
relative for n <= 1000 and a in [0.51, 0.99], and with it in floating
point to within 5e-13 at n = 8192.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, SizeError
from .grids import Grid, GridFn, check_dense
from .special import gamma_fn

__all__ = [
    "OperatorMatrix",
    "OPERATOR_KINDS",
    "OPERATORS",
    "operator_matrix",
    "apply_operator",
    "rl_integral",
    "rl_derivative",
    "caputo_derivative",
    "right_rl_derivative",
    "sequential_caputo",
    "hadamard_integral",
    "hadamard_derivative",
    "hadamard_integral_direct",
    "log_companion_grid",
    "log_companion_times",
    "to_log_grid",
    "from_log_grid",
    "reflect",
]

#: grids with at least this many subintervals apply the band by FFT; below it
#: np.convolve is faster (one thread, numpy's pocketfft; measured crossover
#: n = 350-400 on an x86-64 Xeon)
_FFT_MIN_N = 384

#: a block is transformed in chunks of rows holding at most this many padded
#: samples (64 KiB of doubles), so the work arrays of one chunk stay within
#: 3 x 64 KiB; a vector longer than that is one chunk of its own.  Larger
#: chunks are a little faster but raise the peak memory of a sweep block
_FFT_CHUNK = 2**13


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A fractional operator on one grid, stored as its Toeplitz parts.

    With x the samples, a left-sided kind computes y[0] = 0 and

        y[i] = sum_{j=1..i} band[i-j] x[j] + col0[i] x[0],   i >= 1,

    so ``band`` and ``col0`` (n+1 floats each, scale included) are the
    matrix's Toeplitz band and its column 0.  For n >= _FFT_MIN_N the
    real-FFT ``spectrum`` of the band is computed once at construction.  The
    order-1 derivatives are classical finite differences held in ``dense``
    instead, with ``band`` and ``col0`` unset.  A ``mirrored`` operator is
    the right-sided kind: it reverses x in and y out, whichever way it is
    stored.  For Hadamard kinds ``grid`` is the companion grid uniform in
    log(t/a), not the t-grid the operand was sampled on.
    """

    grid: Grid
    order: float
    kind: str
    band: np.ndarray | None = field(default=None, repr=False)
    col0: np.ndarray | None = field(default=None, repr=False)
    mirrored: bool = False
    dense: np.ndarray | None = field(default=None, repr=False)
    spectrum: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("band", "col0", "dense", "spectrum"):
            value = getattr(self, name)
            if value is not None:
                value.setflags(write=False)
        n = self.grid.n
        if self.dense is None and self.spectrum is None and n >= _FFT_MIN_N:
            # a power of two >= 2n - 1: the circular product holds the linear one
            spectrum = np.fft.rfft(self.band[:n], 1 << (2 * n - 2).bit_length())
            spectrum.setflags(write=False)
            object.__setattr__(self, "spectrum", spectrum)

    @property
    def weights(self) -> np.ndarray:
        """The dense (n+1)^2 weight matrix.

        Assembled from the parts on each access and kept by no cache; the
        order-1 finite differences start from the stored ``dense`` matrix.
        Grids above grids.MAX_DENSE_N raise SizeError before any allocation.
        """
        check_dense(self.grid, "OperatorMatrix.weights")
        if self.dense is not None:
            w = self.dense
        else:
            # w[i, j] = band[i - j] below the diagonal: row i is the window
            # of the reversed band, padded with n zeros, that starts at n - i
            n = self.grid.n
            padded = np.concatenate((self.band[::-1], np.zeros(n)))
            w = sliding_window_view(padded, n + 1)[::-1].copy()
            w[:, 0] = self.col0
            w[0, :] = 0.0
        if self.mirrored:
            w = w[::-1, ::-1].copy()
        w.setflags(write=False)
        return w

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """The operator's values at the n+1 nodes for one vector of samples.

        A (rows, n+1) block gives one row of values per row of samples, each
        equal bit for bit to the vector's.  The block is transformed in
        chunks of rows, at most _FFT_CHUNK padded samples each, so the
        FFT's work arrays stay bounded whatever the block's size.
        """
        n = self.grid.n
        x = _checked(samples, n)
        y = np.empty(x.shape)
        x, out = (x[None], y[None]) if x.ndim == 1 else (x, y)  # a vector is one row
        if self.mirrored:
            x, out = x[:, ::-1], out[:, ::-1]
        if self.dense is not None:
            # a reversed view would bypass BLAS and round differently; the
            # stacked vectors x[:, :, None] make one matrix-vector product per
            # row, as a matrix-matrix product would round differently
            out[:] = np.matmul(self.dense, np.ascontiguousarray(x)[:, :, None])[:, :, 0]
            return y
        out[:, 0] = 0.0
        size = 2 * (n if self.spectrum is None else self.spectrum.size - 1)
        step = max(1, _FFT_CHUNK // size)
        for start in range(0, len(x), step):
            out[start:start + step, 1:] = self._band_part(x[start:start + step])
        return y

    def _band_part(self, x: np.ndarray) -> np.ndarray:
        # nodes 1..n of the values for each row of the block x
        n = self.grid.n
        if self.spectrum is None:
            band_part = np.array([np.convolve(self.band[:n], row)[:n] for row in x[:, 1:]])
        else:
            size = 2 * (self.spectrum.size - 1)
            transform = np.fft.rfft(x[:, 1:], size)
            # spectrum first at every size: numpy's complex product fuses
            # multiply-adds, so its rounding depends on the operand order,
            # which numpy itself swaps when it reuses a large temporary
            np.multiply(self.spectrum, transform, out=transform)
            band_part = np.fft.irfft(transform, size)[:, :n]
            del transform  # freed before the boundary term's temporary
        band_part += self.col0[1:] * x[:, :1]
        return band_part


def _checked(samples: np.ndarray, n: int) -> np.ndarray:
    # one vector of n+1 floats or a (rows, n+1) block of them
    x = np.asarray(samples, dtype=float)
    if x.shape[-1:] != (n + 1,) or x.ndim > 2:
        if x.ndim == 2:
            raise DomainError(f"a block of samples must have shape (rows, {n + 1}) "
                              f"(got {x.shape})")
        raise DomainError(f"samples must have shape ({n + 1},) (got {x.shape})")
    return x


def _check_integral_order(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"fractional integral requires finite alpha > 0 (got {alpha})")
    return alpha


def _check_derivative_order(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(
            f"fractional derivative requires alpha in (0, 1] (got {alpha})"
        )
    return alpha


def _scale(h: float, power: float, gamma_arg: float) -> float:
    # h^power / Gamma(gamma_arg), the factor in front of every weight
    gamma = gamma_fn(gamma_arg)
    try:
        scale = h**power / gamma
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        # a property of the grid spacing, so a sweep stops instead of recording it per cell
        raise SizeError(
            f"operator scale h^{power} / Gamma({gamma_arg}) overflows (h = {h})"
        )
    return scale


def _rl_integral_parts(n: int, alpha: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    # product trapezoid: exact moments of (t-s)^(alpha-1) against hat functions
    scale = _scale(h, alpha, alpha + 2.0)
    k = np.arange(n + 2, dtype=float)
    kp = k ** (alpha + 1.0)
    band = np.zeros(n + 1)
    band[0] = 1.0
    band[1:] = kp[2:n + 2] - 2.0 * kp[1:n + 1] + kp[0:n]
    i = np.arange(n + 1, dtype=float)
    with np.errstate(invalid="ignore"):
        col0 = (i - 1.0) ** (alpha + 1.0) - i**alpha * (i - alpha - 1.0)
    col0[0] = 0.0
    return scale * band, scale * col0


def _l1_caputo_parts(n: int, alpha: float, h: float) -> tuple[np.ndarray, np.ndarray]:
    # L1 scheme: per-cell difference quotients against exact kernel moments
    scale = _scale(h, -alpha, 2.0 - alpha)
    k = np.arange(n + 1, dtype=float)
    beta = k ** (1.0 - alpha) - np.maximum(k - 1.0, 0.0) ** (1.0 - alpha)
    band = np.zeros(n + 1)
    band[0] = 1.0
    if n >= 2:
        band[1:n] = beta[2:n + 1] - beta[1:n]
    return scale * band, scale * -beta


def _fd1_weights(n: int, h: float) -> np.ndarray:
    # classical first derivative: central interior, one-sided second order ends
    w = np.zeros((n + 1, n + 1))
    w[0, 0], w[0, 1], w[0, 2] = -1.5, 2.0, -0.5
    rows = np.arange(1, n)
    w[rows, rows - 1] = -0.5
    w[rows, rows + 1] = 0.5
    w[n, n - 2], w[n, n - 1], w[n, n] = 0.5, -2.0, 1.5
    return w / h


def _inverse_band(b: np.ndarray) -> np.ndarray:
    # g = T^-1 e_1 for T the lower-triangular Toeplitz matrix of the band a = b / b[0],
    # with a trailing 0 that makes it an operator band of n + 1 entries: the reciprocal
    # of the power series a by Newton's iteration, as the module docstring describes.
    # Both products of a doubling reuse the spectrum of g[:m], at a power-of-two size
    # >= 2 m2 - 1 where circular products are linear; the first m2 - m terms of g r
    # read only g[:m2 - m]
    n = b.size
    a = b / b[0]
    g = np.zeros(n + 1)
    g[0] = 1.0
    m = 1
    while m < n:
        m2 = min(2 * m, n)
        size = 1 << (2 * m2 - 2).bit_length()
        spectrum = np.fft.rfft(g[:m], size)
        r = np.fft.irfft(np.fft.rfft(a[:m2], size) * spectrum, size)[m:m2]
        g[m:m2] = -np.fft.irfft(np.fft.rfft(r, size) * spectrum, size)[:m2 - m]
        m = m2
    return g


def _build(grid: Grid, alpha: float, kind: str) -> OperatorMatrix:
    n, h = grid.n, grid.h
    if kind == "rl-integral":
        band, col0 = _rl_integral_parts(n, _check_integral_order(alpha), h)
    elif kind == "caputo":
        if _check_derivative_order(alpha) == 1.0:
            check_dense(grid, "the order-1 derivative")
            return OperatorMatrix(grid, alpha, kind, dense=_fd1_weights(n, h))
        band, col0 = _l1_caputo_parts(n, alpha, h)
    elif kind == "rl-derivative":
        caputo = _build(grid, _check_derivative_order(alpha), "caputo")
        if alpha == 1.0:
            return replace(caputo, kind=kind)
        # the exact derivative of the constant 1, (t-a)^(-alpha) / Gamma(1-alpha),
        # set to 0 at t = a by the left-endpoint convention
        profile = np.zeros(n + 1)
        profile[1:] = (grid.nodes[1:] - grid.a) ** (-alpha) / gamma_fn(1.0 - alpha)
        return replace(caputo, kind=kind, col0=caputo.col0 + profile)
    elif kind == "right-rl-derivative":
        left = _build(grid, _check_derivative_order(alpha), "rl-derivative")
        return replace(left, kind=kind, mirrored=True)
    elif kind == "inverse-caputo":
        if not 0.0 < float(alpha) < 1.0:
            raise DomainError(f"the inverse caputo kind requires alpha in (0, 1) (got {alpha})")
        band = _inverse_band(_l1_caputo_parts(n, alpha, h)[0][:n])
        col0 = np.zeros(n + 1)
    elif kind == "hadamard-integral":
        tau = log_companion_grid(grid)
        band, col0 = _rl_integral_parts(tau.n, _check_integral_order(alpha), tau.h)
        return OperatorMatrix(tau, alpha, kind, band, col0)
    elif kind == "hadamard-derivative":
        tau = log_companion_grid(grid)
        if not 0.0 < float(alpha) <= 1.0:
            raise DomainError(
                f"hadamard derivative requires alpha in (0, 1] (got {alpha})"
            )
        if alpha == 1.0:
            # apply_operator and hadamard_derivative evaluate this order
            raise DomainError("the order-1 hadamard derivative is the limit t u'(t), "
                              "not a matrix kind")
        band, col0 = _l1_caputo_parts(tau.n, alpha, tau.h)
        return OperatorMatrix(tau, alpha, kind, band, col0)
    else:
        raise DomainError(f"unknown operator kind {kind!r}")
    return OperatorMatrix(grid, alpha, kind, band, col0)


def _nbytes(op: OperatorMatrix) -> int:
    return sum(a.nbytes for a in (op.band, op.col0, op.dense, op.spectrum) if a is not None)


class _OperatorCache:
    """Least-recently-used operators, bounded by the bytes of their arrays.

    Every operator is built from its own parts, so no two cached operators
    share an array and each entry counts its own.  An operator whose arrays
    alone exceed ``max_bytes`` is built afresh on every request.
    """

    def __init__(self, build, max_bytes: int):
        self._build = build
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._entries: OrderedDict[tuple, OperatorMatrix] = OrderedDict()
        self._lock = threading.Lock()

    def __call__(self, grid: Grid, alpha: float, kind: str) -> OperatorMatrix:
        key = (grid, alpha, kind)
        op = self._entries.get(key)
        if op is not None:
            try:
                self._entries.move_to_end(key)
            except KeyError:  # evicted by another thread since the lookup
                pass
            return op
        op = self._build(grid, alpha, kind)
        if _nbytes(op) <= self.max_bytes:
            with self._lock:
                if key not in self._entries:
                    self._insert(key, op)
        return op

    def _insert(self, key: tuple, op: OperatorMatrix) -> None:
        self._entries[key] = op
        self.nbytes += _nbytes(op)
        while self.nbytes > self.max_bytes:
            _, old = self._entries.popitem(last=False)
            self.nbytes -= _nbytes(old)

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.nbytes = 0


#: the built operators, at most 256 MiB of arrays: seven operators of order
#: below 1 at n = 2^20 (32 MiB each), or one dense order-1 matrix at n = 4096
_cached_build = _OperatorCache(_build, 256 * 2**20)


def operator_matrix(grid: Grid, alpha: float, kind: str) -> OperatorMatrix:
    """One operator on one grid, from a cache bounded by the bytes it holds."""
    return _cached_build(grid, float(alpha), kind)


def apply_operator(grid: Grid, samples: np.ndarray, alpha: float,
                   kind: str) -> tuple[Grid, np.ndarray]:
    """One kind applied to samples on ``grid``: the output grid and values.

    ``samples`` is one vector of n+1 values or a (rows, n+1) block, which
    gives one row of values per row, each equal bit for bit to the vector's.
    The Hadamard kinds resample onto the companion grid first and return
    values on it; the kind checks the order and the endpoint.
    """
    if kind == "hadamard-derivative" and float(alpha) == 1.0:
        # the t u'(t) limit: differentiate on the original grid and resample
        # the smooth result; resampling first and differencing after would
        # amplify the interpolation sawtooth by 1/h
        _, du = apply_operator(grid, samples, 1.0, "caputo")
        du *= grid.nodes
        return log_companion_grid(grid), _log_resample(grid, du)
    m = operator_matrix(grid, alpha, kind)
    if kind.startswith("hadamard"):
        samples = _log_resample(grid, samples)
    return m.grid, m.apply(samples)


def _evaluate(u: GridFn, alpha: float, kind: str) -> GridFn:
    grid, values = apply_operator(u.grid, u.samples, alpha, kind)
    return GridFn(grid, values, name=u.name)


def rl_integral(u: GridFn, alpha: float) -> GridFn:
    """Left fractional integral of order alpha > 0 at every node.

    Node 0 is the integral over an empty interval and is exactly 0.  At
    alpha = 1 the rule reduces to composite trapezoid, which is exact for
    the piecewise-linear data model.
    """
    return _evaluate(u, alpha, "rl-integral")


def caputo_derivative(u: GridFn, alpha: float) -> GridFn:
    """Caputo fractional derivative of order alpha in (0, 1] at every node."""
    return _evaluate(u, alpha, "caputo")


def rl_derivative(u: GridFn, alpha: float) -> GridFn:
    """Riemann-Liouville derivative of order alpha in (0, 1] at every node.

    The Caputo scheme plus the exact singular contribution of the boundary
    value, u(a) (t-a)^(-alpha) / Gamma(1-alpha), which the operator carries
    in its boundary column (its nodal value at t = a is set to 0 by the
    endpoint convention; the true limit diverges for u(a) != 0).  For data
    vanishing at the left endpoint the two derivatives coincide.
    """
    return _evaluate(u, alpha, "rl-derivative")


def reflect(u: GridFn) -> GridFn:
    """Reverse the sample order; represents t -> a + b - t on the same grid."""
    return GridFn(u.grid, u.samples[::-1].copy(), name=u.name)


def right_rl_derivative(u: GridFn, alpha: float) -> GridFn:
    """Right-sided Riemann-Liouville derivative by the mirror construction.

    Equal to reflect(left derivative(reflect(u))): the chain rule of the
    reflection t -> a + b - t carries the sign, so alpha = 1 yields -u'.
    """
    return _evaluate(u, alpha, "right-rl-derivative")


def sequential_caputo(u: GridFn, alpha: float, beta: float) -> GridFn:
    """Composition d^alpha d^beta u, applied in order beta then alpha.

    No order-addition shortcut is taken; the composition is genuinely two
    scheme applications, preserving non-commutativity.
    """
    return caputo_derivative(caputo_derivative(u, beta), alpha)


@lru_cache(maxsize=64)
def log_companion_grid(grid: Grid) -> Grid:
    """Uniform grid in sigma = log(t/a) over [0, log(b/a)], same n (memoized)."""
    if grid.a <= 0.0:
        raise DomainError("hadamard operators require a > 0")
    return Grid(0.0, math.log(grid.b / grid.a), grid.n)


def log_companion_times(grid: Grid) -> np.ndarray:
    """The t-values a exp(sigma_j) of the companion grid's nodes sigma_j."""
    return grid.a * np.exp(log_companion_grid(grid).nodes)


def _log_resample(grid: Grid, samples: np.ndarray) -> np.ndarray:
    # linear interpolation at t = a exp(sigma_j), row by row as np.interp
    # takes one vector; the end samples are copied exactly
    x = _checked(samples, grid.n)
    times = log_companion_times(grid)
    if x.ndim == 1:
        vals = np.interp(times, grid.nodes, x)
    else:
        vals = np.array([np.interp(times, grid.nodes, row) for row in x]).reshape(x.shape)
    vals[..., 0] = x[..., 0]
    vals[..., -1] = x[..., -1]
    return vals


def to_log_grid(u: GridFn) -> GridFn:
    """Resample a grid function onto the companion grid (linear interpolation).

    Sample j of the result is u evaluated at t = a exp(sigma_j).
    """
    return GridFn(log_companion_grid(u.grid), _log_resample(u.grid, u.samples), name=u.name)


def from_log_grid(g: GridFn, grid: Grid) -> GridFn:
    """Resample a companion-grid function back onto the original t-grid."""
    tau_of_t = np.log(grid.nodes / grid.a)
    vals = np.interp(tau_of_t, g.grid.nodes, g.samples)
    vals[0] = g.samples[0]
    vals[-1] = g.samples[-1]
    return GridFn(grid, vals, name=g.name)


def hadamard_integral(u: GridFn, alpha: float) -> GridFn:
    """Hadamard fractional integral of order alpha > 0.

    Returned samples live on the companion grid: sample j is the operator
    value at t = a exp(sigma_j).
    """
    return _evaluate(u, alpha, "hadamard-integral")


def hadamard_derivative(u: GridFn, alpha: float) -> GridFn:
    """Hadamard fractional derivative of order alpha in (0, 1].

    The boundary order alpha = 1 evaluates the limit operator t u'(t) (the
    first derivative on the logarithmic axis).  Output samples live on the
    companion grid.
    """
    return _evaluate(u, alpha, "hadamard-derivative")


#: the public function of each operator kind; OPERATOR_KINDS is its keys in order
OPERATORS = {
    "rl-integral": rl_integral,
    "rl-derivative": rl_derivative,
    "caputo": caputo_derivative,
    "right-rl-derivative": right_rl_derivative,
    "hadamard-integral": hadamard_integral,
    "hadamard-derivative": hadamard_derivative,
}

OPERATOR_KINDS = tuple(OPERATORS)

_GAUSS_NODES, _GAUSS_WEIGHTS = leggauss(20)


def hadamard_integral_direct(u: GridFn, alpha: float) -> GridFn:
    """Hadamard integral by direct quadrature of the logarithmic kernel in t.

    Independent cross-check of :func:`hadamard_integral`: it shares the
    companion-node samples and the piecewise-linear-in-log data model, but
    integrates (log(t/s))^(alpha-1) u(s) ds/s cell by cell in the original
    variable (Gauss-Legendre on regular cells, a closed-form power-rule
    moment on the singular last cell) instead of using the telescoped
    uniform-grid weights.
    """
    alpha = _check_integral_order(alpha)
    ut = to_log_grid(u)
    tau = ut.grid.nodes
    dtau = ut.grid.h
    a = u.grid.a
    tnodes = log_companion_times(u.grid)
    vals = ut.samples
    n = ut.grid.n
    out = np.zeros(n + 1)
    slope = (vals[1:] - vals[:-1]) / dtau
    inv_gamma = 1.0 / gamma_fn(alpha)
    for i in range(1, n + 1):
        big_t = tnodes[i]
        total = 0.0
        if i >= 2:
            j = np.arange(i - 1)
            s0, s1 = tnodes[j], tnodes[j + 1]
            mid, rad = 0.5 * (s0 + s1), 0.5 * (s1 - s0)
            s = mid[:, None] + rad[:, None] * _GAUSS_NODES[None, :]
            hat = vals[j, None] + slope[j, None] * (np.log(s / a) - tau[j, None])
            f = np.log(big_t / s) ** (alpha - 1.0) * hat / s
            total += float(np.dot(rad, f @ _GAUSS_WEIGHTS))
        # singular cell [t_{i-1}, t_i]: substitute w = log(t_i/s), integrate
        # the affine-in-sigma data exactly
        j = i - 1
        w0 = (tau[i] - tau[j]) ** alpha
        c_end = vals[j] + slope[j] * (tau[i] - tau[j])
        total += (c_end * w0
                  - slope[j] * w0 ** (1.0 + 1.0 / alpha) / (1.0 + 1.0 / alpha)) / alpha
        out[i] = inv_gamma * total
    return GridFn(ut.grid, out, name=u.name)
