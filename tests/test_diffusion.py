import tracemalloc

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
from fracineq import diffusion
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
    # reference: one cumulative sum per diagonal d, over the products b[m] b[m-d]
    # for m = d..n-1, written to both triangles
    n, h = grid.n, grid.h
    b = operator_matrix(grid, alpha, "caputo").band[:n]
    k = np.empty((n, n))
    flat = k.reshape(-1)
    for d in range(n):
        prod = b[d:] * b[:n - d]
        diagonal = (h * np.cumsum(prod) - 0.5 * h * prod)[::-1]
        flat[d:n * (n - d):n + 1] = diagonal
        flat[d * n::n + 1] = diagonal
    return k


@pytest.mark.parametrize("n", [2, 3, 16, 129, 1024])
@pytest.mark.parametrize("alpha", [0.55, 0.75, 0.95])
def test_stiffness_rows_equal_the_diagonal_sums_bit_for_bit(alpha, n):
    grid = uniform_grid(0.0, 1.0, n)
    k = assemble_stiffness(grid, alpha)
    assert k.tobytes() == _stiffness_by_diagonals(grid, alpha).tobytes()


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


@pytest.mark.parametrize("n", [129, 1024, 2048])
@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.95])
def test_run_below_order_one_matches_cho_solve(alpha, n):
    # the Gauss rule of the Lanczos run against LAPACK's potrs steps on the same K
    problem = make_problem(alpha=alpha, n=n, T=0.04, dt=2e-3,
                           profile=lambda t: t + np.sin(7.0 * np.pi * t))
    energy = run(problem).energy
    expect = _energies(problem, scipy.linalg.cho_solve)
    assert energy.size == expect.size == 21
    assert np.max(np.abs(energy - expect) / expect) <= 1e-12


@pytest.mark.parametrize("n", [256, 512])
@pytest.mark.parametrize("alpha", [0.6, 0.75, 0.95])
def test_run_below_order_one_stays_accurate_over_500_steps(alpha, n):
    # the Gauss rule against 500 steps of LAPACK's potrs
    problem = make_problem(alpha=alpha, n=n, T=1.0, dt=2e-3,
                           profile=lambda t: t + np.sin(7.0 * np.pi * t))
    energy = run(problem).energy
    expect = _energies(problem, scipy.linalg.cho_solve)
    assert energy.size == expect.size == 501
    assert np.max(np.abs(energy - expect) / expect) <= 1e-12


def test_run_below_order_one_keeps_one_dense_array():
    # the Cholesky factor overwrites K and the triangular solves read it
    # without a copy; the Lanczos basis holds at most 11 rows of n floats
    # here; tracemalloc sees numpy's arrays only, not OpenBLAS workspace
    n = 1024
    problem = make_problem(alpha=0.75, n=n, T=0.01, dt=1e-3)
    tracemalloc.start()
    try:
        run(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * n * n


def _stepped_energies_mp(problem):
    # the implicit Euler recursion u_k = (M + dt K)^-1 M u_(k-1) in 30-digit
    # arithmetic, from the float stiffness, mass, dt and u0
    with mpmath.workdps(30):
        k = assemble_stiffness(problem.grid, problem.alpha)
        mass = [mpmath.mpf(float(x)) for x in mass_diagonal(problem.grid)]
        n = len(mass)
        system = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                system[i, j] = mpmath.mpf(problem.dt) * mpmath.mpf(float(k[i, j]))
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
    # 31,309 steps on 16 unknowns: the rule has all 16 nodes; the reference is
    # I(t_k) = sum c^2 (1 + dt lam)^-2k over the eigenpairs of M^-1/2 K M^-1/2
    problem = make_problem(alpha=0.75, n=16, T=0.031309, dt=1e-6)
    assert problem.nsteps == 31309
    solves = []
    real_solve = diffusion._solve
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diffusion, "_solve", lambda *args: solves.append(1) or real_solve(*args))
        energy = run(problem).energy
    assert len(solves) == 16
    root = np.sqrt(mass_diagonal(problem.grid))
    k = assemble_stiffness(problem.grid, problem.alpha)
    lam, vecs = scipy.linalg.eigh(k / root[:, None] / root[None, :])
    c2 = (vecs.T @ (root * problem.u0.samples[1:])) ** 2
    steps = np.arange(energy.size)[:, None]
    expect = (c2 * (1.0 + problem.dt * lam) ** (-2.0 * steps)).sum(axis=1)
    assert np.max(np.abs(energy - expect) / expect) <= 1e-10


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
    (np.array([[4.0]]), np.array([3.0])),  # one unknown
    (np.diag([4.0, 16.0]), np.array([3.0, 0.0])),  # z is an eigenvector: beta = 0 at once
])
def test_gauss_energies_stop_at_a_breakdown(system, u0):
    # R = diag(1/4, ...) and z = (3, 0, ...): one solve, and I_k = 9 / 16^k exactly
    solves = []
    real_solve = diffusion._solve
    energy = np.full(41, 9.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diffusion, "_solve", lambda *args: solves.append(1) or real_solve(*args))
        diffusion._gauss_energies(scipy.linalg.cho_factor(system), np.ones(u0.size), u0,
                                  energy, 0.75)
    assert len(solves) == 1
    assert np.array_equal(energy, 9.0 * 0.0625 ** np.arange(41))


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
