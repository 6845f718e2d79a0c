import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracineq import (DomainError, GridFn, NormKind, SizeError, lp_trapezoid, nodal_norm, norm,
                      refine, trapezoid, uniform_grid)
from fracineq.grids import MAX_N

# oracle for the weighted example: integral_1^2 (1 - 1/x)^2 dx = 3/2 - 2 ln 2
WEIGHTED_EXAMPLE = math.sqrt(1.5 - 2.0 * math.log(2.0))  # 0.3372026673680228


def test_uniform_grid_nodes_exact():
    g = uniform_grid(0.0, 1.0, 4)
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0


def test_uniform_grid_transcendental_endpoints():
    g = uniform_grid(1.0, math.e, 2)
    assert g.nodes[0] == 1.0
    assert g.nodes[1] == pytest.approx((1.0 + math.e) / 2.0, abs=0.0, rel=1e-15)
    assert g.nodes[2] == math.e


def test_uniform_grid_rejects_bad_interval():
    with pytest.raises(DomainError):
        uniform_grid(1.0, 0.0, 4)
    with pytest.raises(DomainError):
        uniform_grid(0.0, 1.0, 1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("a,b", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0),
                                 (0.0, math.nan), (math.inf, math.inf)])
def test_grid_refuses_a_non_finite_endpoint_first(a, b):
    # before the a < b check, and before any node is computed (no numpy warning)
    with pytest.raises(DomainError) as info:
        uniform_grid(a, b, 8)
    assert str(info.value) == f"grid requires finite endpoints (got a={a}, b={b})"


def test_grid_size_is_limited_before_allocation():
    assert MAX_N >= 2**20
    tracemalloc.start()
    try:
        for n in (MAX_N + 1, 10**12):
            with pytest.raises(SizeError, match=f"n <= {MAX_N}"):
                uniform_grid(0.0, 1.0, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_refine_shares_nodes_bit_exactly():
    g = uniform_grid(0.3, 2.7, 4)
    fine = refine(g)
    assert fine.n == 8
    assert np.array_equal(fine.nodes[::2], g.nodes)
    assert fine.nodes[1] == 0.5 * (g.nodes[0] + g.nodes[1])


def test_refine_twice():
    g = uniform_grid(-1.0, 1.0, 2)
    assert refine(refine(g)).n == 8
    assert np.array_equal(refine(refine(g)).nodes[::4], g.nodes)


def test_gridfn_length_check():
    g = uniform_grid(0.0, 1.0, 4)
    with pytest.raises(DomainError):
        GridFn(g, np.zeros(4))


def test_gridfn_keeps_read_only_samples_and_copies_writeable_ones():
    g = uniform_grid(0.0, 1.0, 4)
    frozen = np.arange(5.0)
    frozen.setflags(write=False)
    assert GridFn(g, frozen).samples is frozen
    # a caller's writeable array, or a read-only view of one, is copied once
    owner = np.arange(5.0)
    view = owner[:]
    view.setflags(write=False)
    for samples in (owner, view):
        u = GridFn(g, samples)
        owner[0] = -1.0
        assert u.samples[0] == 0.0 and not u.samples.flags.writeable
        owner[0] = 0.0


def test_lp_norm_of_constant_is_exact():
    g = uniform_grid(0.0, 1.0, 16)
    u = GridFn(g, np.ones(17))
    assert norm(u, NormKind.lp(2.0)) == pytest.approx(1.0, abs=1e-15)


def test_log_weighted_norm_example():
    # integral_1^e dx/x = 1; trapezoid converges at second order
    errs = []
    for n in (64, 128, 256):
        g = uniform_grid(1.0, math.e, n)
        u = GridFn(g, np.ones(n + 1))
        errs.append(abs(norm(u, NormKind.log_weighted_lp(2.0)) - 1.0))
    assert errs[-1] < 1e-5
    assert errs[0] / errs[-1] > 10.0  # roughly order 2 over two refinements


def test_sup_norm_is_exact_max():
    g = uniform_grid(0.0, 1.0, 8)
    u = GridFn(g, g.nodes.copy())
    assert norm(u, NormKind.sup()) == 1.0
    v = GridFn(g, np.array([0, -5, 1, 2, 0, 0, 0, 0, 0], dtype=float))
    assert norm(v, NormKind.sup()) == 5.0


def test_weighted_norm_example_against_quadrature_oracle():
    oracle, _ = quad(lambda x: (1.0 - 1.0 / x) ** 2, 1.0, 2.0, epsabs=1e-14)
    assert math.sqrt(oracle) == pytest.approx(WEIGHTED_EXAMPLE, abs=1e-14)
    errs = []
    for n in (128, 256, 512):
        g = uniform_grid(1.0, 2.0, n)
        u = GridFn(g, g.nodes - 1.0)
        errs.append(abs(norm(u, NormKind.weighted_lp(2.0, -1.0)) - WEIGHTED_EXAMPLE))
    assert errs[-1] < 1e-6
    assert errs[0] / errs[-1] > 10.0


def test_weighted_norm_requires_positive_a():
    g = uniform_grid(0.0, 1.0, 8)
    u = GridFn(g, np.ones(9))
    with pytest.raises(DomainError):
        norm(u, NormKind.weighted_lp(2.0, -1.0))
    with pytest.raises(DomainError):
        norm(u, NormKind.log_weighted_lp(2.0))


def test_norm_rejects_p_below_one():
    g = uniform_grid(0.0, 1.0, 8)
    u = GridFn(g, np.ones(9))
    with pytest.raises(DomainError):
        norm(u, NormKind.lp(0.5))


# scale is kept away from the under/overflow range of |c*u|^p
@given(c=st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_norm_homogeneity(c, seed):
    rng = np.random.default_rng(seed)
    g = uniform_grid(1.0, 2.0, 32)
    u = GridFn(g, rng.uniform(-1.0, 1.0, 33))
    for kind in (NormKind.lp(2.0), NormKind.lp(3.0), NormKind.sup(),
                 NormKind.weighted_lp(2.0, -1.0), NormKind.log_weighted_lp(2.0)):
        base = norm(u, kind)
        scaled = norm(c * u, kind)
        assert scaled == pytest.approx(abs(c) * base, rel=1e-12, abs=1e-300)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_norm_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    g = uniform_grid(1.0, 2.0, 32)
    u = GridFn(g, rng.uniform(-1.0, 1.0, 33))
    v = GridFn(g, rng.uniform(-1.0, 1.0, 33))
    for kind in (NormKind.lp(1.0), NormKind.lp(2.0), NormKind.sup(),
                 NormKind.weighted_lp(2.0, 0.5), NormKind.log_weighted_lp(3.0)):
        assert norm(u + v, kind) <= norm(u, kind) + norm(v, kind) + 1e-12


def test_lp_norm_refinement_second_order():
    # smooth integrand: |norm(refine(u)) - norm(u)| shrinks at order >= 2
    diffs = []
    g = uniform_grid(0.0, 1.0, 32)
    for _ in range(3):
        fine = refine(g)
        u = GridFn(g, np.exp(g.nodes))
        uf = GridFn(fine, np.exp(fine.nodes))
        diffs.append(abs(norm(uf, NormKind.lp(2.0)) - norm(u, NormKind.lp(2.0))))
        g = fine
    assert diffs[0] / diffs[1] > 3.5
    assert diffs[1] / diffs[2] > 3.5


def test_grid_hash_and_equality():
    assert uniform_grid(0.0, 1.0, 8) == uniform_grid(0.0, 1.0, 8)
    assert hash(uniform_grid(0.0, 1.0, 8)) == hash(uniform_grid(0.0, 1.0, 8))
    assert uniform_grid(0.0, 1.0, 8) != uniform_grid(0.0, 1.0, 16)
    # memoized: repeated requests share one instance
    assert uniform_grid(0.0, 1.0, 8) is uniform_grid(0.0, 1.0, 8)


@pytest.mark.parametrize("n", [16, 128, 256, 1024, 4096])
def test_block_rules_equal_the_rows_bit_for_bit(n):
    rng = np.random.default_rng(n)
    block = rng.standard_normal((7, n + 1))
    weights = rng.uniform(0.5, 2.0, n + 1)
    h = 1.0 / n
    sums = trapezoid(block, h)
    assert sums.shape == (7,)
    assert all(sums[i] == trapezoid(row, h) for i, row in enumerate(block))
    assert isinstance(trapezoid(block[0], h), float)
    for p in (1.7, 2.0, 3.0):
        for w in (None, weights):
            norms = lp_trapezoid(block, h, p, w)
            assert norms.shape == (7,)
            assert all(norms[i] == lp_trapezoid(row, h, p, w) for i, row in enumerate(block))


def test_nodal_norm_of_a_block_is_the_norm_of_each_row():
    g = uniform_grid(1.0, 2.0, 64)
    block = np.sin(np.outer([1.0, 2.0, 3.0], g.nodes))
    for kind in (NormKind.sup(), NormKind.lp(2.5), NormKind.weighted_lp(3.0, -1.5),
                 NormKind.log_weighted_lp(2.0)):
        norms = nodal_norm(block, g, kind)
        assert norms.shape == (3,)
        assert all(norms[i] == norm(GridFn(g, row), kind) for i, row in enumerate(block))
