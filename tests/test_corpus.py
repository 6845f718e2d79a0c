import re

import numpy as np
import pytest

from fracineq import (
    CorpusSpec,
    DomainError,
    Family,
    InequalityCase,
    ParamError,
    generate,
    sharpness_search,
    uniform_grid,
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
