import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg

from fracineq import (
    AprioriReport,
    DiffusionProblem,
    DomainError,
    EnergyTrace,
    GridFn,
    NormKind,
    NumericError,
    OperatorMatrix,
    SizeError,
    SolveError,
    assemble_stiffness,
    caputo_derivative,
    check_apriori,
    decay_rate,
    gamma_fn,
    mass_diagonal,
    norm,
    operator_matrix,
    run,
    step,
    uniform_grid,
)
from fracineq import diffusion, operators
from fracineq.diffusion import MAX_STEPS
from fracineq.grids import MAX_DENSE_N


def make_problem(alpha=0.75, n=64, T=0.05, dt=1e-3, profile=None):
    grid = uniform_grid(0.0, 1.0, n)
    samples = grid.nodes.copy() if profile is None else profile(grid.nodes)
    samples[0] = 0.0
    return DiffusionProblem(grid, alpha, GridFn(grid, samples), T=T, dt=dt)


def test_stiffness_symmetric_bit_exact():
    grid = uniform_grid(0.0, 1.0, 32)
    k = assemble_stiffness(grid, 0.75)
    assert np.array_equal(k, k.T)


@pytest.mark.parametrize("n", [2, 3, 16, 129, 1024])
@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
def test_stiffness_toeplitz_matches_dense_product(alpha, n):
    # the O(n^2) diagonal assembly against W[:, 1:]^T (q W[:, 1:]) from the
    # dense weights
    grid = uniform_grid(0.0, 1.0, n)
    w = operator_matrix(grid, alpha, "caputo").weights[:, 1:]
    q = np.full(n + 1, grid.h)
    q[0] = q[-1] = grid.h / 2
    dense = w.T @ (q[:, None] * w)
    k = assemble_stiffness(grid, alpha)
    assert np.array_equal(k, k.T)
    assert np.max(np.abs(k - dense)) <= 1e-13 * np.max(np.abs(dense))


def _stiffness_by_diagonals(grid, alpha):
    # reference: the same double-double running sums, built along the diagonals:
    # step j adds the product b[d+j] b[j] to the sum of every diagonal d at once,
    # which gives the entries K[n-1-j-d, n-1-j] of column n-1-j, written to both
    # triangles
    n = grid.n
    b = operator_matrix(grid, alpha, "caputo").band[:n]
    e = math.frexp(b[0])[1]
    b = np.ldexp(b, -e)
    h2 = math.ldexp(grid.h, 2 * e)
    split, two_product, add = diffusion._split, diffusion._two_product, diffusion._add
    b_hi, b_lo = split(b)
    h2_hi, h2_lo = split(h2)
    s_hi, s_lo = np.zeros(n), np.zeros(n)
    k = np.empty((n, n))
    for j in range(n):
        y = float(b[j])
        y_hi, y_lo = split(y)
        prod, err = two_product(b[j:], b_hi[j:], b_lo[j:], y, y_hi, y_lo)
        prod *= 0.5
        err *= 0.5
        a_hi, a_lo = add(s_hi[:n - j], s_lo[:n - j], prod, err)
        s_hi[:n - j], s_lo[:n - j] = add(a_hi, a_lo, prod, err)
        a_hi_hi, a_hi_lo = split(a_hi)
        column, column_err = two_product(a_hi, a_hi_hi, a_hi_lo, h2, h2_hi, h2_lo)
        column += column_err + h2 * a_lo
        c = n - 1 - j
        k[c::-1, c] = column
        k[c, c::-1] = column
    return k


@pytest.mark.parametrize("n", [2, 3, 16, 129, 1024])
@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
def test_stiffness_rows_equal_the_diagonal_sums_bit_for_bit(alpha, n):
    grid = uniform_grid(0.0, 1.0, n)
    k = assemble_stiffness(grid, alpha)
    assert k.tobytes() == _stiffness_by_diagonals(grid, alpha).tobytes()


def _exact_stiffness(grid, alpha):
    # T^T M T of the float band in integer arithmetic: every band entry is an
    # integer over the largest denominator, a power of two, and M = (h/2) W with
    # W = diag(2, ..., 2, 1)
    n = grid.n
    band = [Fraction(x) for x in operator_matrix(grid, alpha, "caputo").band[:n].tolist()]
    scale = max(x.denominator for x in band)
    t = np.zeros((n, n), dtype=object)
    for i in range(n):
        for j in range(i + 1):
            t[i, j] = int(band[i - j] * scale)
    w = np.array([2] * (n - 1) + [1], dtype=object)
    return t.T @ (w[:, None] * t), Fraction(grid.h) / (2 * scale * scale)


@pytest.mark.parametrize("n", [2, 3, 16, 129])
@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
def test_stiffness_entries_are_within_one_ulp_of_the_exact_product(alpha, n):
    grid = uniform_grid(0.0, 1.0, n)
    k = assemble_stiffness(grid, alpha)
    exact, factor = _exact_stiffness(grid, alpha)
    for value, count in zip(k.ravel().tolist(), exact.ravel().tolist()):
        entry = factor * count
        assert abs(Fraction(value) - entry) <= Fraction(np.spacing(abs(float(entry))))


def test_stiffness_energy_identity():
    # u^T K u equals the discrete squared L2 norm of the derivative
    grid = uniform_grid(0.0, 1.0, 64)
    rng = np.random.default_rng(5)
    samples = rng.uniform(-1, 1, 65)
    samples[0] = 0.0
    u = GridFn(grid, samples)
    for alpha in (0.6, 0.8, 1.0):
        k = assemble_stiffness(grid, alpha)
        quadratic = samples[1:] @ k @ samples[1:]
        d = caputo_derivative(u, alpha)
        assert quadratic == pytest.approx(norm(d, NormKind.lp(2.0)) ** 2, rel=1e-12)


def test_stiffness_quadratic_form_order_one():
    # u = t on (0,1), alpha = 1: ||u'||_2^2 = 1
    grid = uniform_grid(0.0, 1.0, 128)
    k = assemble_stiffness(grid, 1.0)
    u = grid.nodes[1:]
    assert u @ k @ u == pytest.approx(1.0, rel=1e-10)


def test_stiffness_annihilates_zero():
    grid = uniform_grid(0.0, 1.0, 16)
    k = assemble_stiffness(grid, 0.9)
    assert np.array_equal(k @ np.zeros(16), np.zeros(16))


def test_stiffness_rejects_bad_alpha():
    grid = uniform_grid(0.0, 1.0, 16)
    with pytest.raises(DomainError):
        assemble_stiffness(grid, 0.5)
    with pytest.raises(DomainError):
        assemble_stiffness(grid, 1.2)


def test_stiffness_size_is_limited_before_allocation():
    grid = uniform_grid(0.0, 1.0, MAX_DENSE_N + 1)
    tracemalloc.start()
    try:
        for alpha in (0.75, 1.0):
            with pytest.raises(SizeError, match=f"limited to n <= {MAX_DENSE_N}"):
                assemble_stiffness(grid, alpha)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_problem_validation():
    grid = uniform_grid(0.0, 1.0, 16)
    good = GridFn(grid, np.concatenate([[0.0], np.ones(16)]))
    DiffusionProblem(grid, 0.75, good, T=1.0, dt=0.5)
    with pytest.raises(DomainError):
        DiffusionProblem(grid, 0.75, GridFn(grid, np.ones(17)), T=1.0, dt=0.5)
    with pytest.raises(DomainError):
        DiffusionProblem(grid, 0.75, good, T=0.1, dt=0.5)
    with pytest.raises(DomainError):
        DiffusionProblem(grid, 0.4, good, T=1.0, dt=0.5)
    for bad in (np.nan, np.inf):
        samples = good.samples.copy()
        samples[7] = bad
        with pytest.raises(DomainError, match="finite"):
            DiffusionProblem(grid, 0.75, GridFn(grid, samples), T=1.0, dt=0.5)
    # the step count T/dt is bounded before any array is allocated
    assert DiffusionProblem(grid, 0.75, good, T=MAX_STEPS * 1e-3, dt=1e-3).nsteps == MAX_STEPS
    for T, dt in ((1e300, 1e-10), (2.0 * MAX_STEPS * 1e-3, 1e-3)):
        with pytest.raises(DomainError, match="steps"):
            DiffusionProblem(grid, 0.75, good, T=T, dt=dt)


@pytest.mark.parametrize(("T", "dt", "steps"), [
    (0.031309, 1e-6, 31309),
    (1.60286, 1e-5, 160286),
    (16.4959, 1e-4, 164959),
    (161.17, 1e-3, 161170),
    (322.34, 2e-3, 161170),
    (2017.12, 1e-2, 201712),
    (16408.8, 0.1, 164088),
])
def test_nsteps_counts_a_decimal_multiple_of_dt_in_full(T, dt, steps):
    # T/dt rounds to just below the integer here, by more than an absolute 1e-12
    grid = uniform_grid(0.0, 1.0, 16)
    u0 = GridFn(grid, grid.nodes.copy())
    assert T / dt < steps
    assert DiffusionProblem(grid, 0.75, u0, T=T, dt=dt).nsteps == steps


def test_nsteps_rounds_down_beyond_the_slack():
    grid = uniform_grid(0.0, 1.0, 16)
    u0 = GridFn(grid, grid.nodes.copy())
    for T, dt, steps in ((0.999999, 1e-3, 999), (16.384 * (1.0 - 1e-10), 1e-3, 16383),
                         (1.0, 1.0, 1), (0.5 * (1.0 - 1e-11), 0.25, 1)):
        assert DiffusionProblem(grid, 0.75, u0, T=T, dt=dt).nsteps == steps


@pytest.mark.parametrize("alpha", [0.75, 1.0])
def test_run_equals_loop_of_step_bit_for_bit(alpha):
    # bit for bit at order 1, where run steps with dpotrs; below order 1 run
    # takes the energies from a Gauss rule, which agrees with the step loop
    problem = make_problem(alpha=alpha, n=32, T=0.05, dt=1e-3)
    trace = run(problem)
    k = assemble_stiffness(problem.grid, alpha)
    k_before = k.copy()
    m = mass_diagonal(problem.grid)
    u = problem.u0.samples[1:].copy()
    energy = [u @ (m * u)]
    for _ in range(problem.nsteps):
        u = step(u, k, m, problem.dt, alpha=alpha)
        energy.append(u @ (m * u))
    energy = np.array(energy)
    if alpha == 1.0:
        assert np.array_equal(trace.energy, energy)
    else:
        assert np.max(np.abs(trace.energy - energy) / energy) <= 1e-12
    assert np.array_equal(k, k_before)


def _energies(problem, solve):
    # I(t_k) stepped by ``solve(factor, rhs)`` over a scipy Cholesky factor of M + dt K
    mass = mass_diagonal(problem.grid)
    k = assemble_stiffness(problem.grid, problem.alpha)
    factor = scipy.linalg.cho_factor(np.diag(mass) + problem.dt * k)
    u = problem.u0.samples[1:].copy()
    energy = [u @ (mass * u)]
    for _ in range(problem.nsteps):
        u = solve(factor, mass * u)
        energy.append(u @ (mass * u))
    return np.array(energy)


def _svd_energies(problem):
    # I(t_k) = sum c^2 (1 + dt s^2)^-2k over the singular triples of
    # C = M^1/2 T M^-1/2, since M^-1/2 K M^-1/2 = C^T C with K = T^T M T: a
    # reference that does not pass through a rounded K
    root = np.sqrt(mass_diagonal(problem.grid))
    t = operator_matrix(problem.grid, problem.alpha, "caputo").weights[1:, 1:]
    _, s, vt = scipy.linalg.svd(root[:, None] * t / root[None, :])
    c2 = (vt @ (root * problem.u0.samples[1:])) ** 2
    rate = -2.0 * np.log1p(problem.dt * s * s)
    steps = np.arange(problem.nsteps + 1)
    return np.concatenate([np.exp(chunk[:, None] * rate) @ c2
                           for chunk in np.array_split(steps, 1 + steps.size // 4096)])


def _band(n, alpha):
    return operator_matrix(uniform_grid(0.0, 1.0, n), alpha, "caputo").band[:n]


def _recursion(b):
    # g = T^-1 e_1 by the forward recursion g_k = sum_{j>=1} (-b_j / b_0) g_(k-j),
    # whose terms are all >= 0
    n = b.size
    neg = b[:0:-1] / -b[0]
    g = np.zeros(n)
    g[0] = 1.0
    for k in range(1, n):
        g[k] = neg[n - 1 - k:] @ g[:k]
    return g


def _recursion_mp(b):
    # the forward recursion in 30-digit arithmetic from the float band
    with mpmath.workdps(30):
        a = [mpmath.mpf(float(x)) / mpmath.mpf(float(b[0])) for x in b]
        g = [mpmath.mpf(1)]
        for k in range(1, b.size):
            g.append(-mpmath.fsum(a[j] * g[k - j] for j in range(1, k + 1)))
        return np.array([float(x) for x in g])


@pytest.mark.parametrize("n", [2, 3, 17, 129, 257])
@pytest.mark.parametrize("alpha", [0.51, 0.75, 0.99])
def test_inverse_band_matches_the_recursion_in_mpmath(alpha, n):
    # the odd sizes end on a partial doubling
    b = _band(n, alpha)
    g = operators._inverse_band(b)
    expect = _recursion_mp(b)
    assert g.size == n + 1 and g[n] == 0.0
    assert np.all(g[:n] > 0.0)
    assert np.max(np.abs(g[:n] - expect) / expect) <= 1e-13


@pytest.mark.parametrize("n", [1000, 2047, 2048, 2049, 8192])
@pytest.mark.parametrize("alpha", [0.51, 0.75, 0.99])
def test_inverse_band_matches_the_float_recursion(alpha, n):
    b = _band(n, alpha)
    g = operators._inverse_band(b)[:n]
    expect = _recursion(b)
    assert np.all(g > 0.0)
    assert np.max(np.abs(g - expect) / expect) <= 1e-12


@pytest.mark.parametrize(("alpha", "n"), [
    (alpha, n) for alpha in (0.6, 0.75, 0.95) for n in (129, 1024, 2048)
] + [(alpha, n) for alpha in (0.51, 0.99) for n in (129, 1024)])
def test_run_below_order_one_matches_cho_solve(alpha, n):
    # the Gauss rule of the Lanczos run against the exact implicit Euler energies
    # of the float band; cho_solve steps over a K assembled by plain sums read
    # 2.6e-10 off at alpha = 0.95, n = 2048
    problem = make_problem(alpha=alpha, n=n, T=0.04, dt=2e-3,
                           profile=lambda t: t + np.sin(7.0 * np.pi * t))
    energy = run(problem).energy
    expect = _svd_energies(problem)
    assert energy.size == expect.size == 21
    assert np.max(np.abs(energy - expect) / expect) <= 1e-12


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.95])
def test_run_below_order_one_stays_accurate_over_500_steps(alpha, n):
    problem = make_problem(alpha=alpha, n=n, T=1.0, dt=2e-3,
                           profile=lambda t: t + np.sin(7.0 * np.pi * t))
    energy = run(problem).energy
    expect = _svd_energies(problem)
    assert energy.size == expect.size == 501
    assert np.max(np.abs(energy - expect) / expect) <= 1e-12


def test_run_below_order_one_stays_accurate_over_100000_steps():
    # the slow modes are the largest eigenvalues of P, which the run resolves to
    # full relative accuracy, so the error does not grow with the step count
    problem = make_problem(alpha=0.95, n=512, T=1.0, dt=1e-5,
                           profile=lambda t: t + np.sin(7.0 * np.pi * t))
    energy = run(problem).energy
    expect = _svd_energies(problem)
    assert energy.size == expect.size == 100001
    assert np.max(np.abs(energy - expect) / expect) <= 1e-12


def test_run_below_order_one_keeps_no_dense_array():
    # the Lanczos basis holds 16 rows of n floats per block; the operators, the
    # FFT work arrays and the probes a few more; tracemalloc sees numpy's arrays
    # only, not OpenBLAS workspace
    n = 1024
    problem = make_problem(alpha=0.75, n=n, T=0.01, dt=1e-3)
    tracemalloc.start()
    try:
        with pytest.MonkeyPatch.context() as patch:
            for name in ("assemble_stiffness", "_factor"):
                patch.setattr(diffusion, name,
                              lambda *args, name=name: pytest.fail(f"{name} called"))
            run(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 8 * n


def test_run_hands_over_its_arrays_without_a_copy():
    # times and energy are the only arrays of nsteps floats alive together; an
    # EnergyTrace built by a caller still copies the caller's arrays
    problem = make_problem(alpha=0.75, n=16, T=0.2, dt=1e-6)
    tracemalloc.start()
    try:
        trace = run(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * trace.energy.size
    assert not (trace.times.flags.writeable or trace.energy.flags.writeable)
    times, energy = trace.times.copy(), trace.energy.copy()
    copied = EnergyTrace(times, energy, trace.lam)
    times[0] = energy[0] = -1.0
    assert copied.times[0] == 0.0 and copied.energy[0] == trace.energy[0]


def _stepped_energies_mp(problem):
    # the implicit Euler recursion u_k = (M + dt T^T M T)^-1 M u_(k-1) in 30-digit
    # arithmetic, from the float band, mass, dt and u0
    n = problem.grid.n
    with mpmath.workdps(30):
        band = [mpmath.mpf(float(x))
                for x in operator_matrix(problem.grid, problem.alpha, "caputo").band[:n]]
        mass = [mpmath.mpf(float(x)) for x in mass_diagonal(problem.grid)]
        dt = mpmath.mpf(problem.dt)
        system = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                stiffness = mpmath.fsum(band[m - i] * mass[m] * band[m - j]
                                        for m in range(max(i, j), n))
                system[i, j] = dt * stiffness
            system[i, i] += mass[i]
        inverse = mpmath.inverse(system)
        propagate = np.array([[inverse[i, j] * mass[j] for j in range(n)] for i in range(n)],
                             dtype=object)
        weights = np.array(mass, dtype=object)
        u = np.array([mpmath.mpf(float(x)) for x in problem.u0.samples[1:]], dtype=object)
        energy = [float(u @ (weights * u))]
        for _ in range(problem.nsteps):
            u = propagate @ u
            energy.append(float(u @ (weights * u)))
    return np.array(energy)


@pytest.mark.parametrize("alpha", [0.6, 0.95])
def test_run_below_order_one_matches_the_stepped_recursion_in_mpmath(alpha):
    problem = make_problem(alpha=alpha, n=32, T=1.0, dt=2e-3,
                           profile=lambda t: t + np.sin(7.0 * np.pi * t))
    energy = run(problem).energy
    expect = _stepped_energies_mp(problem)
    assert energy.size == expect.size == 501
    assert np.max(np.abs(energy - expect) / expect) <= 1e-12


def test_run_below_order_one_exhausts_a_small_krylov_space():
    # 31,309 steps on 16 unknowns from rough data: the rule takes all 16 nodes,
    # two convolutions per Lanczos step, and stops there
    problem = make_problem(alpha=0.75, n=16, T=0.031309, dt=1e-6,
                           profile=lambda t: np.random.default_rng(3).uniform(-1, 1, t.size))
    assert problem.nsteps == 31309
    applies = []
    apply = OperatorMatrix.apply
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OperatorMatrix, "apply", lambda self, x: applies.append(1) or apply(self, x))
        energy = run(problem).energy
    assert len(applies) == 2 * 16
    expect = _svd_energies(problem)
    assert np.max(np.abs(energy - expect) / expect) <= 1e-12


def test_run_of_one_step_equals_one_step():
    problem = make_problem(alpha=0.75, n=64, T=1e-3, dt=1e-3)
    assert problem.nsteps == 1
    energy = run(problem).energy
    m = mass_diagonal(problem.grid)
    u = step(problem.u0.samples[1:], assemble_stiffness(problem.grid, 0.75), m,
             problem.dt, alpha=0.75)
    assert energy.size == 2
    assert energy[0] == problem.u0.samples[1:] @ (m * problem.u0.samples[1:])
    assert energy[1] == pytest.approx(u @ (m * u), rel=1e-14)


@pytest.mark.parametrize(("system", "u0"), [
    (np.array([1.0 / 3.0]), np.array([3.0])),  # one unknown
    (np.array([1.0 / 3.0, 1.0 / 15.0]), np.array([3.0, 0.0])),  # u0 is an eigenvector: beta = 0
])
def test_gauss_energies_stop_at_a_breakdown(system, u0):
    # P = diag(system) = diag(1/3, ...) with shift 1 gives R = diag(1/4, ...), and
    # z = u0 = (3, 0, ...): one product, and I_k = 9 / 16^k
    products = []
    energy = np.full(41, 9.0)
    diffusion._gauss_energies(lambda v: products.append(1) or system * v, 1.0, u0, energy)
    assert len(products) == 1
    assert np.allclose(energy, 9.0 * 0.0625 ** np.arange(41), rtol=1e-14, atol=0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gauss_energies_give_no_weight_to_a_ritz_value_at_or_below_zero():
    # P = diag(1, 0, -1e-300) with shift 1: only the node at 1, with R = 1/2 and
    # weight 1/3, contributes; a shift beyond the float range sends every energy
    # after the first to 0
    energy = np.empty(5)
    energy[0] = 3.0
    diffusion._gauss_energies(lambda v: np.array([1.0, 0.0, -1e-300]) * v, 1.0,
                              np.ones(3), energy)
    assert np.allclose(energy[1:], 0.25 ** np.arange(1, 5), rtol=1e-14, atol=0.0)
    diffusion._gauss_energies(lambda v: np.array([1.0, 1e-300]) * v, 1e300,
                              np.ones(2), energy[:3])
    assert np.array_equal(energy[1:3], [0.0, 0.0])


@pytest.mark.parametrize("n", [32, 129])
def test_run_order_one_is_a_dpotrs_loop_bit_for_bit(n):
    problem = make_problem(alpha=1.0, n=n, T=0.05, dt=1e-3)

    def dpotrs(factor, rhs):
        c, lower = factor
        x, info = scipy.linalg.lapack.dpotrs(c, rhs, lower=lower)
        assert info == 0
        return x

    assert np.array_equal(run(problem).energy, _energies(problem, dpotrs))


def test_step_zero_fixed_point():
    grid = uniform_grid(0.0, 1.0, 32)
    k = assemble_stiffness(grid, 0.8)
    m = mass_diagonal(grid)
    out = step(np.zeros(32), k, m, 1e-2, alpha=0.8)
    assert np.array_equal(out, np.zeros(32))


def test_step_strictly_decreases_energy():
    grid = uniform_grid(0.0, 1.0, 32)
    k = assemble_stiffness(grid, 0.8)
    m = mass_diagonal(grid)
    u = grid.nodes[1:].copy()
    before = u @ (m * u)
    after_state = step(u, k, m, 1e-2, alpha=0.8)
    after = after_state @ (m * after_state)
    assert after <= before * (1.0 + 1e-12)
    assert after < before


def test_run_zero_initial_data():
    problem = make_problem(profile=np.zeros_like)
    trace = run(problem)
    assert np.array_equal(trace.energy, np.zeros_like(trace.energy))


def test_run_energy_nonincreasing_all_alphas():
    for alpha in (0.6, 0.75, 1.0):
        trace = run(make_problem(alpha=alpha, n=64, T=0.1))
        report = check_apriori(trace)
        assert report.monotone_ok
        assert report.max_monotone_violation <= 1e-12


def test_decay_rate_formula():
    grid = uniform_grid(0.0, 1.0, 16)
    for alpha in (0.6, 0.75, 1.0):
        expect = (2 * alpha - 1) * gamma_fn(alpha) ** 2
        assert decay_rate(grid, alpha) == pytest.approx(expect, rel=1e-14)
    wide = uniform_grid(0.0, 2.0, 16)
    assert decay_rate(wide, 0.75) == pytest.approx(
        0.5 * gamma_fn(0.75) ** 2 / 2.0**1.5, rel=1e-14)
    # (b - a)^(2 alpha) beyond the float range: lambda rounds to 0 or overflows
    assert decay_rate(uniform_grid(-1e300, 1e300, 16), 0.75) == 0.0
    with pytest.raises(NumericError, match="decay rate overflows"):
        decay_rate(uniform_grid(0.0, 1e-300, 16), 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_stiffness_is_solve_error():
    # h = 6e-302: the L1 band products overflow while the stiffness is
    # assembled, which refuses them without a numpy warning
    grid = uniform_grid(0.0, 1e-300, 16)
    problem = DiffusionProblem(grid, 0.75, GridFn(grid, grid.nodes / grid.b), T=1.0, dt=0.5)
    with pytest.raises(SolveError, match="stiffness is not finite"):
        run(problem)


def test_energy_bound_is_the_exponential_of_the_rate():
    trace = run(make_problem(alpha=0.9, n=32, T=0.02, dt=1e-3))
    assert trace.bound[0] == trace.energy[0]
    for t, bound in zip(trace.times, trace.bound):
        assert bound == trace.energy[0] * np.exp(-2.0 * trace.lam * t)


def test_exponential_bound_alpha_one_linear_data():
    # lambda = 1 on (0,1); the trace must sit below I(0) e^(-2t) (1 + 5%)
    trace = run(make_problem(alpha=1.0, n=128, T=1.0, dt=1e-3))
    report = check_apriori(trace)
    assert report.exp_bound_ok
    assert trace.energy[-1] <= trace.energy[0] * np.exp(-2.0) * 1.05


def test_alpha_one_matches_classical_heat_assembly():
    # independently constructed first-derivative matrix: central interior,
    # second-order one-sided ends
    n = 64
    grid = uniform_grid(0.0, 1.0, n)
    h = grid.h
    d = np.zeros((n + 1, n + 1))
    d[0, 0], d[0, 1], d[0, 2] = -1.5 / h, 2.0 / h, -0.5 / h
    for i in range(1, n):
        d[i, i - 1], d[i, i + 1] = -0.5 / h, 0.5 / h
    d[n, n - 2], d[n, n - 1], d[n, n] = 0.5 / h, -2.0 / h, 1.5 / h
    q = np.full(n + 1, h)
    q[0] = q[-1] = h / 2
    k_classic = d[:, 1:].T @ (q[:, None] * d[:, 1:])
    k_classic = 0.5 * (k_classic + k_classic.T)

    problem = make_problem(alpha=1.0, n=n, T=0.05, dt=1e-3)
    trace = run(problem)

    mass = mass_diagonal(grid)
    u = problem.u0.samples[1:].copy()
    factor = scipy.linalg.cho_factor(np.diag(mass) + problem.dt * k_classic)
    energy = [float(u @ (mass * u))]
    for _ in range(len(trace.energy) - 1):
        u = scipy.linalg.cho_solve(factor, mass * u)
        energy.append(float(u @ (mass * u)))
    ref = np.array(energy)
    assert np.max(np.abs(trace.energy - ref) / ref[0]) <= 1e-10


def test_check_apriori_flags_constructed_increase():
    times = np.array([0.0, 0.1, 0.2, 0.3])
    energy = np.array([1.0, 0.9, 0.95, 0.8])
    report = check_apriori(EnergyTrace(times, energy, lam=0.0))
    assert not report.monotone_ok
    assert report.first_violation_index == 2
    assert report.max_monotone_violation == pytest.approx(0.05 / 0.9, rel=1e-12)


def test_check_apriori_monotone_trace_clean():
    times = np.linspace(0.0, 1.0, 11)
    energy = np.exp(-times)
    report = check_apriori(EnergyTrace(times, energy, lam=0.25))
    assert report.monotone_ok
    assert report.first_violation_index is None
    assert report.exp_bound_ok  # e^-t <= e^(-0.5 t) * 1.05


def test_check_apriori_empty_trace_rejected():
    with pytest.raises(DomainError):
        check_apriori(EnergyTrace(np.array([]), np.array([]), lam=1.0))
