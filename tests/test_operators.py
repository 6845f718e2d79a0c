import hashlib
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracineq import (
    DomainError,
    GridFn,
    SizeError,
    caputo_derivative,
    from_log_grid,
    gamma_fn,
    hadamard_derivative,
    hadamard_integral,
    hadamard_integral_direct,
    log_companion_grid,
    operator_matrix,
    reference_caputo,
    reference_rl_integral,
    reflect,
    refine,
    right_rl_derivative,
    rl_derivative,
    rl_integral,
    sequential_caputo,
    to_log_grid,
    uniform_grid,
)
from fracineq import grids, operators
from fracineq.operators import OPERATOR_KINDS, OPERATORS
from conftest import order_fit

FIXTURES = Path(__file__).parent / "fixtures"

INV_GAMMA_15 = 1.1283791670955126  # 1/Gamma(1.5) = 2/sqrt(pi)
INV_SQRT_PI = 0.5641895835477563


def grid_fn(a, b, n, f, name="u"):
    g = uniform_grid(a, b, n)
    return GridFn(g, f(g.nodes), name=name)


# --- matrix structure -------------------------------------------------------

@pytest.mark.parametrize("kind,alpha", [
    ("rl-integral", 0.5), ("rl-integral", 1.0), ("rl-integral", 1.7),
    ("caputo", 0.5), ("rl-derivative", 0.5), ("hadamard-integral", 0.5),
    ("hadamard-derivative", 0.5),
])
def test_left_matrices_lower_triangular(kind, alpha):
    g = uniform_grid(1.0, 2.0, 16)
    w = operator_matrix(g, alpha, kind).weights
    assert np.array_equal(w, np.tril(w))


def test_right_matrix_upper_triangular():
    g = uniform_grid(0.0, 1.0, 16)
    w = operator_matrix(g, 0.5, "right-rl-derivative").weights
    assert np.array_equal(w, np.triu(w))


def test_matrices_annihilate_zero():
    g = uniform_grid(0.0, 1.0, 16)
    zero = np.zeros(17)
    for kind in ("rl-integral", "caputo", "rl-derivative", "right-rl-derivative"):
        assert np.array_equal(operator_matrix(g, 0.5, kind).apply(zero), zero)


def test_hadamard_matrix_lives_on_companion_grid():
    g = uniform_grid(1.0, math.e, 16)
    m = operator_matrix(g, 0.5, "hadamard-integral")
    assert m.grid.a == 0.0
    assert m.grid.b == pytest.approx(1.0, abs=1e-15)


def test_order_domain_errors():
    g = uniform_grid(0.0, 1.0, 8)
    u = GridFn(g, np.ones(9))
    with pytest.raises(DomainError):
        rl_integral(u, 0.0)
    with pytest.raises(DomainError):
        caputo_derivative(u, 1.5)
    with pytest.raises(DomainError):
        caputo_derivative(u, 0.0)


# --- fractional integral ----------------------------------------------------

def test_rl_integral_of_one_matches_oracle():
    # I^0.5[1](1) with a=0: closed form 1/Gamma(1.5), oracle-checked
    oracle = reference_rl_integral(lambda s: 1.0, 0.0, 1.0, 0.5)
    assert oracle == pytest.approx(INV_GAMMA_15, abs=1e-12)
    u = grid_fn(0.0, 1.0, 2048, lambda t: np.ones_like(t))
    got = rl_integral(u, 0.5).samples[-1]
    assert got == pytest.approx(oracle, rel=1e-7)


def test_rl_integral_order_one_exact_on_linear_data():
    u = grid_fn(0.0, 1.0, 64, np.ones_like)
    out = rl_integral(u, 1.0)
    assert np.allclose(out.samples, u.grid.nodes, atol=1e-14)


def test_rl_integral_semigroup_composition_example():
    # I^0.3 I^0.7 of 1 equals I^1 of 1 = t, within discretization error
    u = grid_fn(0.0, 1.0, 1024, np.ones_like)
    composed = rl_integral(rl_integral(u, 0.7), 0.3)
    assert np.max(np.abs(composed.samples - u.grid.nodes)) < 5e-3


def test_rl_integral_node_zero_is_zero():
    u = grid_fn(0.0, 1.0, 32, lambda t: 1.0 + t)
    assert rl_integral(u, 0.7).samples[0] == 0.0


# --- caputo derivative ------------------------------------------------------

def test_caputo_annihilates_constants():
    u = grid_fn(0.0, 2.0, 64, lambda t: 3.5 * np.ones_like(t))
    for alpha in (0.3, 0.75, 1.0):
        assert np.max(np.abs(caputo_derivative(u, alpha).samples)) < 1e-12


def test_caputo_order_one_is_classical_derivative():
    u = grid_fn(0.0, 1.0, 128, lambda t: t**2)
    out = caputo_derivative(u, 1.0)
    assert np.allclose(out.samples, 2.0 * u.grid.nodes, atol=1e-10)


def test_caputo_of_linear_matches_gamma_ratio():
    # d^0.5 t at t=1: Gamma(2)/Gamma(1.5) = 1/Gamma(1.5); L1 is exact on
    # linear data, and the value is oracle-checked
    oracle = reference_caputo(lambda s: 1.0, 0.0, 1.0, 0.5)
    assert oracle == pytest.approx(INV_GAMMA_15, abs=1e-12)
    u = grid_fn(0.0, 1.0, 256, lambda t: t)
    assert caputo_derivative(u, 0.5).samples[-1] == pytest.approx(oracle, rel=1e-12)


def test_caputo_convergence_order_is_two_minus_alpha():
    ns = (256, 512, 1024, 2048)
    for alpha in (0.3, 0.5, 0.75):
        errs = []
        for n in ns:
            u = grid_fn(0.0, 1.0, n, lambda t: t**2)
            exact = 2.0 / gamma_fn(3.0 - alpha) * u.grid.nodes ** (2.0 - alpha)
            errs.append(np.max(np.abs(caputo_derivative(u, alpha).samples - exact)))
        assert order_fit(ns, errs) == pytest.approx(2.0 - alpha, abs=0.15)


def test_caputo_alpha_to_one_consistency():
    # smooth data with u'(a) = 0: full-grid agreement
    u = grid_fn(0.0, 1.0, 2048, lambda t: t**2)
    near = caputo_derivative(u, 1.0 - 1e-6)
    at_one = caputo_derivative(u, 1.0)
    assert np.max(np.abs(near.samples - at_one.samples)) < 1e-3
    # generic smooth data: agreement away from the left endpoint (the
    # operator family is discontinuous in alpha at t = a when u'(a) != 0)
    v = grid_fn(0.0, 1.0, 2048, np.sin)
    near = caputo_derivative(v, 1.0 - 1e-6)
    at_one = caputo_derivative(v, 1.0)
    assert np.max(np.abs(near.samples[1:] - at_one.samples[1:])) < 1e-3


@pytest.mark.parametrize("n", [129, 1024])  # direct convolution, FFT
def test_inverse_caputo_inverts_the_caputo_operator(n):
    grid = uniform_grid(0.0, 1.0, n)
    for alpha in (0.0, 1.0):
        with pytest.raises(DomainError):
            operator_matrix(grid, alpha, "inverse-caputo")
    x = np.random.default_rng(n).standard_normal(n + 1)
    x[0] = 0.0
    for alpha in (0.3, 0.51, 0.75, 0.99):
        caputo = operator_matrix(grid, alpha, "caputo")
        inverse = operator_matrix(grid, alpha, "inverse-caputo")
        assert not inverse.col0.any()
        y = inverse.apply(caputo.apply(x))[1:] / caputo.band[0]
        assert np.max(np.abs(y - x[1:])) <= 1e-12 * np.max(np.abs(x))


# --- riemann-liouville derivative -------------------------------------------

def test_rl_equals_caputo_bit_exactly_on_vanishing_data():
    u = grid_fn(0.0, 1.0, 128, lambda t: t * (1.0 - t))
    for alpha in (0.25, 0.6, 1.0):
        assert np.array_equal(rl_derivative(u, alpha).samples,
                              caputo_derivative(u, alpha).samples)


def test_rl_derivative_of_constant():
    # D^0.5[1](t) = t^(-1/2)/Gamma(1/2) for a=0; derived from the power rule
    # and cross-checked by differencing the oracle fractional integral
    u = grid_fn(0.0, 1.0, 256, np.ones_like)
    out = rl_derivative(u, 0.5)
    nodes = u.grid.nodes
    expect = nodes[1:] ** (-0.5) / gamma_fn(0.5)
    assert np.allclose(out.samples[1:], expect, rtol=1e-12)
    assert out.samples[-1] == pytest.approx(INV_SQRT_PI, rel=1e-12)
    eps = 1e-6
    oracle_slope = (reference_rl_integral(lambda s: 1.0, 0.0, 1.0 + eps, 0.5)
                    - reference_rl_integral(lambda s: 1.0, 0.0, 1.0 - eps, 0.5)) / (2 * eps)
    assert out.samples[-1] == pytest.approx(oracle_slope, rel=1e-9)


def test_rl_derivative_order_one_of_constant_is_zero():
    u = grid_fn(0.0, 1.0, 64, np.ones_like)
    assert np.max(np.abs(rl_derivative(u, 1.0).samples)) < 1e-12


# --- right-sided derivative -------------------------------------------------

def test_right_derivative_order_one_is_negative_slope():
    u = grid_fn(0.0, 1.0, 64, lambda t: t)
    out = right_rl_derivative(u, 1.0)
    assert np.allclose(out.samples, -1.0, atol=1e-12)


def test_right_derivative_of_constant_mirror_power_rule():
    # at t=0 with b=1: (b-t)^(-1/2)/Gamma(1/2) = 1/sqrt(pi)
    u = grid_fn(0.0, 1.0, 256, np.ones_like)
    out = right_rl_derivative(u, 0.5)
    assert out.samples[0] == pytest.approx(INV_SQRT_PI, rel=1e-12)
    nodes = u.grid.nodes
    expect = (1.0 - nodes[:-1]) ** (-0.5) / gamma_fn(0.5)
    assert np.allclose(out.samples[:-1], expect, rtol=1e-12)


def test_right_derivative_reflection_identity_bit_exact():
    rng = np.random.default_rng(7)
    u = grid_fn(0.25, 1.25, 64, lambda t: np.sin(3 * t))
    v = GridFn(u.grid, rng.uniform(-1, 1, 65))
    for w in (u, v):
        direct = right_rl_derivative(w, 0.4).samples
        mirrored = reflect(rl_derivative(reflect(w), 0.4)).samples
        assert np.array_equal(direct, mirrored)


# --- hadamard operators -----------------------------------------------------

def test_hadamard_integral_of_one_at_right_endpoint():
    # (log(t/a))^0.5 / Gamma(1.5) at t=e with a=1 -> 1/Gamma(1.5)
    u = grid_fn(1.0, math.e, 1024, np.ones_like)
    out = hadamard_integral(u, 0.5)
    assert out.samples[-1] == pytest.approx(INV_GAMMA_15, rel=1e-8)


def test_hadamard_integral_order_one_is_log():
    u = grid_fn(1.0, 4.0, 128, np.ones_like)
    out = hadamard_integral(u, 1.0)
    assert np.allclose(out.samples, out.grid.nodes, atol=1e-13)


def test_hadamard_requires_positive_left_endpoint():
    u = grid_fn(0.0, 1.0, 16, np.ones_like)
    with pytest.raises(DomainError):
        hadamard_integral(u, 0.5)
    with pytest.raises(DomainError):
        hadamard_derivative(u, 0.5)


def test_hadamard_derivative_annihilates_constants():
    u = grid_fn(1.0, 3.0, 64, lambda t: 2.0 * np.ones_like(t))
    assert np.max(np.abs(hadamard_derivative(u, 0.5).samples)) < 1e-12


def test_hadamard_derivative_log_power_rule():
    # for u = log(t/a): value 1/Gamma(1.5) at t=e, oracle-checked
    oracle = 1.0 / gamma_fn(1.5)
    u = grid_fn(1.0, math.e, 2048, np.log)
    out = hadamard_derivative(u, 0.5)
    assert out.samples[-1] == pytest.approx(oracle, rel=1e-5)


def test_hadamard_derivative_order_one_is_the_t_derivative_limit():
    u = grid_fn(1.0, 2.0, 512, np.log)
    out = hadamard_derivative(u, 1.0)
    # t u'(t) = 1 for u = log t; central differences plus one resampling
    assert np.allclose(out.samples, 1.0, atol=1e-5)
    tu = GridFn(u.grid, u.grid.nodes * caputo_derivative(u, 1.0).samples)
    assert out.grid == log_companion_grid(u.grid)
    assert np.array_equal(out.samples, to_log_grid(tu).samples)


def test_hadamard_fundamental_identity_under_refinement():
    # integral of derivative recovers u - u(a) on the companion grid
    ns = (128, 256, 512, 1024)
    errs = []
    for n in ns:
        u = grid_fn(1.0, 3.0, n, lambda t: np.cos(np.log(t)) + 0.5)
        rec = rl_integral(hadamard_derivative(u, 0.6), 0.6)
        ut = to_log_grid(u)
        errs.append(np.max(np.abs(rec.samples - (ut.samples - ut.samples[0]))))
    assert order_fit(ns, errs) >= 1.0
    assert errs[-1] < 1e-4


def test_hadamard_substitution_consistency():
    # direct kernel quadrature in t agrees with the log-substitution path
    for f in (lambda t: np.log(t) ** 2, lambda t: np.sin(t)):
        u = grid_fn(1.0, math.e, 512, f)
        sub = hadamard_integral(u, 0.5).samples
        direct = hadamard_integral_direct(u, 0.5).samples
        assert np.max(np.abs(sub - direct)) < 1e-8


def test_companion_grid_round_trip():
    g = uniform_grid(1.0, 3.0, 64)
    u = GridFn(g, np.log(g.nodes) ** 2)
    back = from_log_grid(to_log_grid(u), g)
    assert back.samples[0] == u.samples[0]
    assert back.samples[-1] == u.samples[-1]
    assert np.max(np.abs(back.samples - u.samples)) < 1e-3
    tau = log_companion_grid(g)
    assert tau.n == g.n and tau.a == 0.0
    assert log_companion_grid(g) is tau


# --- sequential composition -------------------------------------------------

def test_sequential_chained_power_rule():
    # d^0.3 d^0.4 t at t=1 -> Gamma(2)/Gamma(1.3) = 1/Gamma(1.3);
    # oracle: chain the reference derivative of the inner output
    inner_exact = lambda s: s**0.6 / gamma_fn(1.6)  # d^0.4 t
    oracle = reference_caputo(lambda s: 0.6 * s ** (-0.4) / gamma_fn(1.6), 0.0, 1.0, 0.3)
    assert oracle == pytest.approx(1.0 / gamma_fn(1.3), abs=1e-10)
    u = grid_fn(0.0, 1.0, 2048, lambda t: t)
    out = sequential_caputo(u, 0.3, 0.4)
    assert out.samples[-1] == pytest.approx(1.0 / gamma_fn(1.3), abs=1e-6)
    # value converges toward the oracle under refinement
    coarse = sequential_caputo(grid_fn(0.0, 1.0, 512, lambda t: t), 0.3, 0.4)
    assert abs(out.samples[-1] - oracle) < abs(coarse.samples[-1] - oracle)


def test_sequential_integer_orders():
    u = grid_fn(0.0, 1.0, 128, lambda t: t**2)
    out = sequential_caputo(u, 1.0, 1.0)
    assert np.allclose(out.samples, 2.0, atol=1e-9)


def test_sequential_of_constant_is_zero():
    u = grid_fn(0.0, 1.0, 64, lambda t: 4.0 * np.ones_like(t))
    assert np.max(np.abs(sequential_caputo(u, 0.5, 0.5).samples)) < 1e-12


# --- shared structural properties -------------------------------------------

@given(c1=st.floats(-10, 10, allow_nan=False), c2=st.floats(-10, 10, allow_nan=False),
       seed=st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_operators_are_linear(c1, c2, seed):
    rng = np.random.default_rng(seed)
    g = uniform_grid(1.0, 2.0, 32)
    u = GridFn(g, rng.uniform(-1, 1, 33))
    v = GridFn(g, rng.uniform(-1, 1, 33))
    combo = GridFn(g, c1 * u.samples + c2 * v.samples)
    for op in (lambda w: rl_integral(w, 0.6),
               lambda w: caputo_derivative(w, 0.6),
               lambda w: right_rl_derivative(w, 0.6),
               lambda w: hadamard_integral(w, 0.6)):
        lhs = op(combo).samples
        rhs = c1 * op(u).samples + c2 * op(v).samples
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_semigroup_defect_vanishes_with_order_at_least_one():
    ns = (128, 256, 512, 1024)
    for alpha, beta in ((0.3, 0.4), (0.25, 0.5), (0.5, 0.5), (0.7, 0.3)):
        errs = []
        for n in ns:
            u = grid_fn(0.0, 1.0, n, np.sin)   # vanishes at a
            lhs = rl_integral(rl_integral(u, beta), alpha)
            rhs = rl_integral(u, alpha + beta)
            errs.append(np.max(np.abs(lhs.samples - rhs.samples)))
        assert order_fit(ns, errs) >= 1.0


def test_fundamental_theorem_defect_vanishes():
    ns = (128, 256, 512, 1024)
    for alpha in (0.3, 0.6, 0.9):
        errs = []
        for n in ns:
            u = grid_fn(0.0, 1.0, n, np.cos)   # u(a) = 1 != 0
            rec = rl_integral(caputo_derivative(u, alpha), alpha)
            errs.append(np.max(np.abs(rec.samples - (u.samples - u.samples[0]))))
        assert order_fit(ns, errs) >= 1.0


def test_operator_output_preserves_grid_and_name():
    u = grid_fn(0.0, 1.0, 32, np.sin, name="wave")
    out = caputo_derivative(u, 0.5)
    assert out.grid == u.grid
    assert out.name == "wave"


# --- O(n) storage and fast apply --------------------------------------------

FAST_CASES = [(kind, 0.6) for kind in OPERATOR_KINDS] + [("caputo", 1.0)]
FFT_MIN_N = operators._FFT_MIN_N


@pytest.mark.parametrize("n", [2, 3, 16, 129, FFT_MIN_N - 1, FFT_MIN_N, FFT_MIN_N + 1, 4096])
@pytest.mark.parametrize("kind,alpha", FAST_CASES)
def test_fast_apply_matches_dense_product(kind, alpha, n):
    m = operator_matrix(uniform_grid(1.0, 2.0, n), alpha, kind)
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
    dense = m.weights @ x
    got = m.apply(x)
    assert got.shape == dense.shape
    assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))


def test_weights_match_dense_assembly_bit_for_bit():
    # sha256 of .weights.tobytes(), recorded from the former dense assembly
    # (scipy toeplitz + boundary column + zero row); the diffusion stiffness
    # is built from these bytes
    fixture = json.loads((FIXTURES / "operator_weights_sha256.json").read_text())
    for entry in fixture["weights"]:
        grid = uniform_grid(fixture["a"], fixture["b"], entry["n"])
        w = operator_matrix(grid, entry["alpha"], entry["kind"]).weights
        digest = hashlib.sha256(w.tobytes()).hexdigest()
        assert digest == entry["sha256"], (entry["kind"], entry["alpha"], entry["n"])


def test_operator_memory_is_linear_in_n():
    # a dense matrix at this n would take 8.8 TB; band, column and spectrum
    # take about 34 MB per operator
    n = 2**20
    grid = uniform_grid(1.0, 2.0, n)
    x = np.linspace(0.0, 1.0, n + 1)
    tracemalloc.start()
    try:
        for kind in OPERATOR_KINDS:
            m = operator_matrix(grid, 0.6, kind)
            y = m.apply(x)
            assert y.shape == (n + 1,) and np.all(np.isfinite(y))
            arrays = [v for v in vars(m).values() if isinstance(v, np.ndarray)]
            assert arrays and all(a.ndim == 1 for a in arrays)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        operators._cached_build.cache_clear()
    assert peak < 256 * 2**20


def test_reflect_copies_no_samples():
    # the reversed view of read-only samples is kept, not copied
    n = 2**16
    u = GridFn(uniform_grid(0.0, 1.0, n), np.linspace(-1.0, 1.0, n + 1))
    tracemalloc.start()
    try:
        v = reflect(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n
    assert np.array_equal(v.samples, u.samples[::-1]) and not v.samples.flags.writeable


def _op_bytes(m):
    return sum(a.nbytes for a in (m.band, m.col0, m.dense, m.spectrum) if a is not None)


@pytest.fixture
def cache_budget(monkeypatch):
    # a cold cache with the given byte budget, emptied again afterwards
    cache = operators._cached_build

    def set_budget(max_bytes):
        cache.cache_clear()
        monkeypatch.setattr(cache, "max_bytes", max_bytes)
        return cache

    yield set_budget
    cache.cache_clear()


def test_operator_cache_is_bounded_by_bytes(cache_budget):
    # unbounded, the six kinds at n = 2^20 hold 192 MiB, 32 MiB each
    cache = cache_budget(48 * 2**20)
    grid = uniform_grid(1.0, 2.0, 2**20)
    log_companion_grid(grid)
    tracemalloc.start()
    try:
        largest = 0
        for kind in OPERATOR_KINDS:
            largest = max(largest, _op_bytes(operator_matrix(grid, 0.6, kind)))
            assert cache.nbytes <= cache.max_bytes
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current <= cache.max_bytes + largest


def test_operator_cache_counts_each_entrys_own_bytes(cache_budget, monkeypatch):
    cache = cache_budget(256 * 2**20)
    grid = uniform_grid(1.0, 2.0, 1024)

    def reentered(*args):
        raise AssertionError(f"a build re-entered the operator cache for {args}")

    # every kind is built from its own parts, never from another cached operator
    with monkeypatch.context() as patch:
        patch.setattr(operators, "_cached_build", reentered)
        for kind in OPERATOR_KINDS + ("inverse-caputo",):
            for alpha in (0.5, 1.0):
                if alpha == 1.0 and kind in ("hadamard-derivative", "inverse-caputo"):
                    continue
                m = operators._build(grid, alpha, kind)
                assert (m.order, m.kind) == (alpha, kind)
    for alpha in (1.0, 0.5):
        cache.cache_clear()
        held = [operator_matrix(grid, alpha, kind)
                for kind in ("caputo", "rl-derivative", "right-rl-derivative")]
        assert list(cache._entries.values()) == held
        assert cache.nbytes == sum(_op_bytes(m) for m in held)


def test_operator_larger_than_the_budget_is_not_cached(cache_budget):
    cache = cache_budget(2**20)
    grid = uniform_grid(0.0, 1.0, 1024)
    dense = operator_matrix(grid, 1.0, "caputo")  # 8.4 MB
    assert operator_matrix(grid, 1.0, "caputo") is not dense
    assert cache.nbytes == 0
    band = operator_matrix(grid, 0.5, "caputo")
    assert operator_matrix(grid, 0.5, "caputo") is band
    assert cache.nbytes == _op_bytes(band)


def test_operator_cache_accounting_holds_under_threads(cache_budget):
    # more threads than cores and a short switch interval, with a budget that
    # evicts on most inserts: a lost update would break the byte count
    cache = cache_budget(2**16)
    grids_ = [uniform_grid(0.0, 1.0, n) for n in (400, 500, 600)]
    requests = [(g, alpha, kind) for g in grids_ for alpha in (0.3, 0.7)
                for kind in ("caputo", "rl-derivative", "right-rl-derivative")]
    errors = []

    def work(seed):
        rng = np.random.default_rng(seed)
        try:
            for i in rng.integers(len(requests), size=1000):
                g, alpha, kind = requests[i]
                m = operator_matrix(g, alpha, kind)
                assert (m.grid, m.order, m.kind) == (g, alpha, kind)
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    held = [_op_bytes(m) for m in cache._entries.values()]
    assert cache.nbytes == sum(held) <= cache.max_bytes


# --- one evaluation path per kind -------------------------------------------

# the Hadamard derivative of order 1 is the t u'(t) limit, not a kind
KIND_ORDERS = [(kind, alpha) for kind in OPERATOR_KINDS for alpha in (0.4, 1.0)
               if (kind, alpha) != ("hadamard-derivative", 1.0)]


@pytest.mark.parametrize("n", [16, 383, 384, 1000])
@pytest.mark.parametrize("kind,alpha", KIND_ORDERS)
def test_public_function_applies_its_kind_bit_for_bit(kind, alpha, n):
    # u(a) != 0 and u(b) != 0, so the boundary columns of both sides count
    u = grid_fn(0.5, 2.0, n, lambda t: 1.5 + np.sin(3.0 * t))
    m = operator_matrix(u.grid, alpha, kind)
    x = to_log_grid(u) if kind.startswith("hadamard") else u
    out = OPERATORS[kind](u, alpha)
    assert out.grid == m.grid
    assert np.array_equal(out.samples, m.apply(x.samples))


@pytest.mark.parametrize("n", [256, 4096, 2**16])
@pytest.mark.parametrize("alpha", [0.3, 0.75])
def test_rl_derivative_is_caputo_plus_boundary_profile(alpha, n):
    # D^alpha u = d^alpha (u - u(a)) + u(a) (t-a)^(-alpha) / Gamma(1-alpha);
    # the kind folds the profile into its boundary column
    u = grid_fn(0.0, 1.0, n, lambda t: 2.0 + np.cos(5.0 * t))
    u0 = u.samples[0]
    expect = caputo_derivative(GridFn(u.grid, u.samples - u0), alpha).samples.copy()
    expect[1:] += u0 * u.grid.nodes[1:] ** -alpha / gamma_fn(1.0 - alpha)
    got = rl_derivative(u, alpha).samples
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
    mirrored = reflect(rl_derivative(reflect(u), alpha)).samples
    assert np.array_equal(right_rl_derivative(u, alpha).samples, mirrored)


@pytest.mark.parametrize("n", [256, 4096])
def test_order_one_derivatives_share_the_finite_differences(n):
    u = grid_fn(0.0, 1.0, n, lambda t: 2.0 + np.cos(5.0 * t))
    left = caputo_derivative(u, 1.0).samples
    assert np.array_equal(rl_derivative(u, 1.0).samples, left)
    mirrored = reflect(caputo_derivative(reflect(u), 1.0)).samples
    assert np.array_equal(right_rl_derivative(u, 1.0).samples, mirrored)


INTEGRAL_MESSAGE = "fractional integral requires finite alpha > 0 (got {})"
DERIVATIVE_MESSAGE = "fractional derivative requires alpha in (0, 1] (got {})"
HADAMARD_MESSAGE = "hadamard derivative requires alpha in (0, 1] (got {})"
MESSAGE_CASES = (
    [(kind, alpha, INTEGRAL_MESSAGE) for kind in ("rl-integral", "hadamard-integral")
     for alpha in (0.0, -0.5, math.nan, math.inf)]
    + [(kind, alpha, DERIVATIVE_MESSAGE)
       for kind in ("caputo", "rl-derivative", "right-rl-derivative")
       for alpha in (0.0, -0.5, 1.5, math.nan, math.inf)]
    + [("hadamard-derivative", alpha, HADAMARD_MESSAGE)
       for alpha in (0.0, -0.5, 1.5, math.nan, math.inf)]
)


@pytest.mark.parametrize("kind,alpha,message", MESSAGE_CASES)
def test_invalid_order_message(kind, alpha, message):
    u = grid_fn(0.5, 1.5, 16, np.cos)
    with pytest.raises(DomainError) as info:
        OPERATORS[kind](u, alpha)
    assert str(info.value) == message.format(float(alpha))


@pytest.mark.parametrize("kind,alpha", [("hadamard-integral", 0.5), ("hadamard-integral", 1.0),
                                        ("hadamard-derivative", 0.5),
                                        ("hadamard-derivative", 1.0)])
@pytest.mark.parametrize("a", [0.0, -1.0])
def test_hadamard_left_endpoint_message(kind, alpha, a):
    u = grid_fn(a, 1.5, 16, np.cos)
    with pytest.raises(DomainError) as info:
        OPERATORS[kind](u, alpha)
    assert str(info.value) == "hadamard operators require a > 0"


def test_order_one_hadamard_derivative_is_not_a_matrix_kind():
    grid = uniform_grid(1.0, 2.0, 16)
    with pytest.raises(DomainError) as info:
        operator_matrix(grid, 1.0, "hadamard-derivative")
    assert str(info.value) == ("the order-1 hadamard derivative is the limit t u'(t), "
                               "not a matrix kind")
    assert hadamard_derivative(GridFn(grid, grid.nodes), 1.0).grid == log_companion_grid(grid)


def test_dense_order_one_is_limited_before_allocation():
    grids.check_dense(uniform_grid(0.0, 1.0, grids.MAX_DENSE_N), "a matrix")
    big = uniform_grid(0.0, 1.0, grids.MAX_DENSE_N + 1)
    tracemalloc.start()
    try:
        for kind in ("caputo", "rl-derivative", "right-rl-derivative"):
            with pytest.raises(SizeError, match="dense matrix, limited to n <= 8192"):
                operator_matrix(big, 1.0, kind)
        with pytest.raises(SizeError):
            hadamard_derivative(GridFn(big, big.nodes + 1.0), 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_weights_are_limited_before_allocation():
    # the O(n) parts and the spectrum are about 0.4 MB; the dense matrix would be 537 MB
    big = uniform_grid(0.0, 1.0, grids.MAX_DENSE_N + 1)
    tracemalloc.start()
    try:
        m = operators._build(big, 0.5, "caputo")
        with pytest.raises(SizeError, match="OperatorMatrix.weights is a dense matrix"):
            m.weights
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_apply_rejects_wrong_length():
    m = operator_matrix(uniform_grid(0.0, 1.0, 16), 0.5, "caputo")
    with pytest.raises(DomainError) as info:
        m.apply(np.zeros(18))
    assert str(info.value) == "samples must have shape (17,) (got (18,))"
    for shape in [(3, 18), (3, 16)]:
        with pytest.raises(DomainError) as info:
            m.apply(np.zeros(shape))
        assert str(info.value) == f"a block of samples must have shape (rows, 17) (got {shape})"
    with pytest.raises(DomainError, match=r"samples must have shape \(17,\) \(got \(2, 3, 17\)\)"):
        m.apply(np.zeros((2, 3, 17)))


# --- block apply --------------------------------------------------------------

def _block(n, rows, seed):
    # rows of smooth data with u(a) != 0 and u(b) != 0, on [0.5, 2]
    grid = uniform_grid(0.5, 2.0, n)
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1.0, 1.0, (rows, 4))
    return grid, c[:, :1] + c[:, 1:2] * np.sin(3.0 * grid.nodes + c[:, 2:3]) \
        + c[:, 3:] * grid.nodes**2


@pytest.mark.parametrize("n", [FFT_MIN_N - 1, FFT_MIN_N, 1024, 1025])
@pytest.mark.parametrize("kind,alpha", KIND_ORDERS)
def test_block_apply_equals_the_vector_apply_bit_for_bit(kind, alpha, n):
    # mirrored (right-rl-derivative), dense (order 1), Hadamard (companion
    # grid) and sequential operands (the block of an inner derivative),
    # on each side of the FFT threshold
    for rows in (1, 12):
        grid, u = _block(n, rows, seed=n + rows)
        m = operator_matrix(grid, alpha, kind)
        inner = operator_matrix(grid, 0.3, "caputo").apply(u)
        for x in (u, inner):
            got = m.apply(x)
            assert got.shape == (rows, n + 1)
            for row, samples in zip(got, x):
                assert np.array_equal(row, m.apply(samples))


@pytest.mark.parametrize("n", [FFT_MIN_N - 1, 1024])
@pytest.mark.parametrize("kind,alpha", KIND_ORDERS + [("hadamard-derivative", 1.0)])
def test_apply_operator_rows_equal_the_public_function(kind, alpha, n):
    grid, u = _block(n, 12, seed=n)
    out_grid, values = operators.apply_operator(grid, u, alpha, kind)
    assert operators.apply_operator(grid, u[:0], alpha, kind)[1].shape == (0, n + 1)
    for row, samples in zip(values, u):
        lone = OPERATORS[kind](GridFn(grid, samples), alpha)
        assert out_grid == lone.grid
        assert np.array_equal(row, lone.samples)


def test_block_fft_is_chunked():
    # the largest sweep block at n = 1024: about 4,092 rows, 32 MiB per array;
    # one unchunked transform would add about 200 MB of work arrays
    grid = uniform_grid(0.0, 1.0, 1024)
    m = operator_matrix(grid, 0.6, "caputo")
    x = np.tile(grid.nodes, ((grids.MAX_N + 1) // (grid.n + 1), 1))
    tracemalloc.start()
    try:
        y = m.apply(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(y[-1], m.apply(grid.nodes))
    assert peak <= y.nbytes + 3 * 8 * operators._FFT_CHUNK
