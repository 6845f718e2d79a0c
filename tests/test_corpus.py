import math
import re
import tracemalloc

import numpy as np
import pytest

from fracineq import (
    IMPROVEMENT_MARGIN,
    MAX_CORPUS_SAMPLES,
    MAX_DENSE_N,
    MAX_N,
    BasisSides,
    CorpusSpec,
    DomainError,
    Family,
    GridFn,
    HypothesisError,
    InequalityCase,
    NumericError,
    ParamError,
    SizeError,
    corpus,
    evaluate_sides,
    generate,
    sharpness_search,
    uniform_grid,
    validate_case,
)
from fracineq.inequalities import BOUNDARY_TOLERANCE


def test_powers_corpus_samples():
    grid = uniform_grid(0.0, 1.0, 16)
    (u,) = generate(CorpusSpec.powers(grid, [1.0]))
    assert np.array_equal(u.samples, grid.nodes)
    assert u.name == "pow:mu=1"


def test_powers_vanish_requirement():
    grid = uniform_grid(0.0, 1.0, 16)
    with pytest.raises(DomainError):
        generate(CorpusSpec.powers(grid, [0.0]))
    generate(CorpusSpec.powers(grid, [0.0], vanish_at_a=False))


def test_polynomials_deterministic():
    grid = uniform_grid(0.0, 1.0, 32)
    first = generate(CorpusSpec.polynomials(grid, 3, 5, seed=42))
    second = generate(CorpusSpec.polynomials(grid, 3, 5, seed=42))
    assert len(first) == 5
    for u, v in zip(first, second):
        assert np.array_equal(u.samples, v.samples)
    other = generate(CorpusSpec.polynomials(grid, 3, 5, seed=43))
    assert not np.array_equal(first[0].samples, other[0].samples)


def test_polynomials_vanish_exactly():
    grid = uniform_grid(2.0, 5.0, 64)
    for u in generate(CorpusSpec.polynomials(grid, 4, 20, seed=9)):
        assert u.samples[0] == 0.0
        assert abs(u.samples[0]) <= BOUNDARY_TOLERANCE


def test_expression_corpus():
    grid = uniform_grid(0.0, 1.0, 16)
    (u,) = generate(CorpusSpec.expressions(grid, ["t^2 - t"]))
    assert u.samples[-1] == pytest.approx(0.0, abs=1e-15)
    assert u.name == "expr:t^2 - t"


def test_sharpness_probe_attains_equality():
    case = InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=1.0, p=2.0)
    result = sharpness_search(case, budget=0, seed=1)
    # the initial iterate is u = t - a, the equality-attaining probe
    assert result.certificate.ratio == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(result.coefficients, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_sharpness_monotone_in_budget():
    case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    ratios = [sharpness_search(case, budget=budget, seed=7).certificate.ratio
              for budget in (0, 25, 100)]
    assert ratios[0] <= ratios[1] <= ratios[2]


def test_sharpness_refuses_a_negative_budget():
    # before the basis is built; a negative budget used to return the initial iterate
    case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.9, p=2.0)
    with pytest.raises(ParamError, match=re.escape("sharpness search needs budget >= 0 "
                                                   "(got -5)")):
        sharpness_search(case, budget=-5, grid_n=16)


def test_sharpness_never_violates_certificate_rule():
    case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    result = sharpness_search(case, budget=120, seed=3)
    cert = result.certificate
    assert cert.ratio <= 1.0 + cert.disc_tol
    assert cert.passed


@pytest.mark.parametrize("degree,seed,message", [
    (-1, 0, "needs degree >= 0 (got -1)"),
    (17, 0, "needs degree <= n = 16 (got 17)"),
    (10**11, 0, "needs degree <= n = 16"),
    (3, -1, "needs seed >= 0 (got -1)"),
])
def test_polynomial_degree_and_seed_are_checked_before_allocation(degree, seed, message):
    # a degree of 10^11 would allocate 745 GiB of coefficients
    grid = uniform_grid(1.0, 2.0, 16)
    with pytest.raises(ParamError, match=re.escape(f"polynomial corpus {message}")):
        generate(CorpusSpec.polynomials(grid, degree, 1, seed))
    case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    with pytest.raises(ParamError, match=re.escape(f"sharpness search {message}")):
        sharpness_search(case, budget=3, seed=seed, degree=degree, grid_n=16)
    (u,) = generate(CorpusSpec.polynomials(grid, 16, 1, 0))
    assert u.samples[0] == 0.0


# --- the block search against the per-function search -------------------------

def reference_search(case, budget, seed, degree=4, grid_n=256):
    # the documented proposal sequence, one evaluate_sides per trial
    grid = uniform_grid(case.a, case.b, grid_n)
    rng = np.random.default_rng(seed)

    def better(coeffs, best_ratio):
        cert = evaluate_sides(case, corpus._candidate(grid, coeffs))
        return cert.ratio > best_ratio * (1.0 + IMPROVEMENT_MARGIN), cert.ratio

    best = np.zeros(degree + 1)
    best[0] = 1.0
    best_ratio = evaluate_sides(case, corpus._candidate(grid, best)).ratio
    evals, step = 0, 0.5
    while evals < budget:
        improved = False
        for k in range(degree + 1):
            for sign in (1.0, -1.0):
                if evals >= budget:
                    break
                trial = best.copy()
                trial[k] += sign * step
                evals += 1
                gain, ratio = better(trial, best_ratio)
                if gain:
                    best, best_ratio, improved = trial, ratio, True
        if not improved:
            step *= 0.5
            if step < 1e-3:
                if evals >= budget:
                    break
                trial = rng.uniform(-1.0, 1.0, degree + 1)
                evals += 1
                gain, ratio = better(trial, best_ratio)
                if gain:
                    best, best_ratio = trial, ratio
                step = 0.5
    return best, evaluate_sides(case, corpus._candidate(grid, best))


def _case(family, **params):
    return InequalityCase(family, a=1.0, b=2.0, **params)


#: the first case of each family in the benchmark lattice, and criterion 5
SEARCH_CASES = [
    _case(Family.POINCARE_SOBOLEV, alpha=0.6, p=2.0),
    _case(Family.POINCARE_SOBOLEV_LQ, alpha=0.6, p=2.0, theta=1.5),
    _case(Family.SOBOLEV_BETA, alpha=0.85, beta=0.0, p=4.0),
    _case(Family.SOBOLEV_BETA, alpha=0.85, beta=0.1, p=4.0),
    _case(Family.HARDY, alpha=0.6, p=2.0),
    _case(Family.WEIGHTED_HARDY, alpha=0.75, p=2.0, gamma=-1.5),
    _case(Family.GAGLIARDO_NIRENBERG, alpha=0.75, p=2.0, q=2.0, s=0.5),
    _case(Family.CKN, alpha=0.9, p=2.0, q=2.0, delta=0.5, d=0.8, e=0.3),
    _case(Family.SEQ_POINCARE_SOBOLEV, alpha=0.8, beta=0.3, p=2.0),
    _case(Family.SEQ_HARDY, alpha=0.8, beta=0.3, p=2.0),
    _case(Family.SEQ_GAGLIARDO_NIRENBERG, alpha=0.4, beta=0.75, p=2.0, q=2.0, s=0.5),
    _case(Family.HAD_POINCARE_SOBOLEV, alpha=0.6, p=2.0),
    _case(Family.HAD_HARDY, alpha=0.6, p=2.0),
    _case(Family.HAD_WEIGHTED_HARDY, alpha=0.75, p=2.0, gamma=-1.5),
    _case(Family.HAD_GAGLIARDO_NIRENBERG, alpha=0.75, p=2.0, q=2.0, s=0.5),
    _case(Family.HAD_CKN, alpha=0.9, p=2.0, q=2.0, delta=0.5, d=0.8, e=0.3),
    _case(Family.UNCERTAINTY, alpha=0.6, p=2.0),
    _case(Family.HAD_UNCERTAINTY, alpha=0.6, p=2.0),
    InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=1.0, p=2.0),
]


@pytest.mark.parametrize("grid_n", [64, 129])
@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c.family.value)
def test_block_search_matches_per_function_search(case, grid_n):
    # n = 129 is odd, so the final certificate takes the interpolated coarse pass
    for seed in (0, 1, 2):
        coeffs, cert = reference_search(validate_case(case), 200, seed, grid_n=grid_n)
        result = sharpness_search(case, budget=200, seed=seed, grid_n=grid_n)
        assert np.array_equal(result.coefficients, coeffs), seed
        assert result.certificate == cert, seed


def test_block_ratios_are_the_fine_grid_ratios():
    grid = uniform_grid(1.0, 2.0, 64)
    basis = [corpus._candidate(grid, e) for e in np.eye(3)]
    coeffs = np.array([[1.0, 0.5, -0.25], [0.3, -2.0, 1.0], [0.0, 0.0, 1.0]])
    for case in SEARCH_CASES[:-1]:
        ratios, error = BasisSides(case, basis).ratios(coeffs)
        assert error is None and ratios.shape == (3,)
        for row, ratio in zip(coeffs, ratios):
            cert = evaluate_sides(case, corpus._candidate(grid, row), disc_tol=0.0)
            assert ratio == pytest.approx(cert.ratio, rel=1e-12, abs=0.0), case.family


def test_block_rows_are_checked_in_order():
    grid = uniform_grid(1.0, 2.0, 16)
    case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    ramp = corpus._candidate(grid, [1.0])
    one = GridFn(grid, np.ones(17), name="one")
    sides = BasisSides(case, [ramp, one])
    ratios, error = sides.ratios([[1.0, 0.0], [2.0, 0.0], [1.0, 1.0], [1.0, 3.0]])
    assert ratios.shape == (2,)
    with pytest.raises(HypothesisError) as expected:
        evaluate_sides(case, one)  # |u(a)| = 1, where the last row has 3
    assert type(error) is HypothesisError and str(error) == str(expected.value)
    # a non-finite side before any other failure: the NumericError of evaluate_sides
    huge = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=1e300)
    ratios, error = BasisSides(huge, [ramp]).ratios([[1.0]])
    assert ratios.shape == (0,)
    with pytest.raises(NumericError) as expected:
        evaluate_sides(huge, ramp)
    assert type(error) is NumericError and str(error) == str(expected.value)


def test_sharpness_basis_size_is_limited_before_allocation():
    case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    # (d + 1)(n + 1) = MAX_N + 1 is the limit: d = 63, n = 65535
    tracemalloc.start()
    try:
        for degree, grid_n in [(63, 65536), (64, 65535), (2048, 2048)]:
            with pytest.raises(SizeError, match=re.escape(
                    f"sharpness search needs (degree + 1)(n + 1) <= {MAX_N + 1} "
                    f"(got degree={degree}, n={grid_n})")):
                sharpness_search(case, budget=3, degree=degree, grid_n=grid_n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the grid's nodes and their checks; the basis would take 32 MiB per array
    assert peak < 4 * 2**20


# --- corpus limits -------------------------------------------------------------

@pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
def test_powers_need_finite_exponents(mu):
    grid = uniform_grid(1.0, 2.0, 16)
    for vanish in (True, False):
        with pytest.raises(ParamError, match="power corpus needs finite exponents"):
            generate(CorpusSpec.powers(grid, [1.0, mu], vanish_at_a=vanish))


def test_polynomial_count_is_limited_before_allocation(monkeypatch):
    grid = uniform_grid(1.0, 2.0, 16)
    limit = MAX_CORPUS_SAMPLES // 17
    monkeypatch.setattr(corpus, "_random_polynomial", lambda *args, **kw: pytest.fail("drawn"))
    tracemalloc.start()
    try:
        for count in (limit + 1, 10**8, 10**30):
            with pytest.raises(SizeError, match=re.escape(
                    f"polynomial corpus needs count * (n + 1) <= {MAX_CORPUS_SAMPLES} "
                    f"(got count={count}, n=16)")):
                generate(CorpusSpec.polynomials(grid, 3, count, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert MAX_CORPUS_SAMPLES == (MAX_DENSE_N + 1) ** 2
