import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

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
    caputo_derivative,
    constant,
    corpus,
    evaluate_sides,
    generate,
    hadamard_derivative,
    sharpness_search,
    uniform_grid,
    validate_case,
)
from fracineq.inequalities import BOUNDARY_TOLERANCE
from test_acceptance import _lattices


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



@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("spec,name", [
    (CorpusSpec.powers(uniform_grid(1.0, 11.0, 16), [2.0, 400.0]), "pow:mu=400"),
    (CorpusSpec.powers(uniform_grid(1.0, 1e300, 2), [1.5]), "pow:mu=1.5"),
    (CorpusSpec.powers(uniform_grid(0.0, 1.0, 16), [-1.0], vanish_at_a=False), "pow:mu=-1"),
    (CorpusSpec.polynomials(uniform_grid(1.0, 1e308, 16), 3, 2, seed=0), "poly:seed=0:0"),
])
def test_non_finite_samples_are_refused_by_name(spec, name):
    # without a numpy warning, as eval_expr refuses an expr: corpus
    with pytest.raises(NumericError, match=re.escape(
            f"{name}: sample value overflows or is not a number")):
        generate(spec)


def test_polynomial_rows_are_the_polynomials_of_each_row():
    # one Horner pass over the rows gives each row's samples bit for bit
    grid = uniform_grid(2.0, 5.0, 64)
    coeffs = np.random.default_rng(3).uniform(-1.0, 1.0, (4, 5))
    rows = corpus._polynomial(grid, coeffs, "q")
    assert [u.name for u in rows] == ["q:0", "q:1", "q:2", "q:3"]
    for u, c in zip(rows, coeffs):
        single = corpus._polynomial(grid, c, "q")
        assert single.name == "q" and u.samples.tobytes() == single.samples.tobytes()
        x = (grid.nodes - 2.0) / 3.0
        assert np.allclose(u.samples, (grid.nodes - 2.0) * sum(ck * x**k for k, ck in
                                                                enumerate(c)), rtol=1e-14,
                           atol=1e-14)

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

def candidate(grid, coeffs):
    # the function (t - a) q of the search's coefficients, as sharpness_search samples it
    return corpus._polynomial(grid, coeffs, "sharpness-candidate")


def reference_search(case, budget, degree=4, grid_n=256):
    # the compass rounds that the search ran before it solved every case, one
    # evaluate_sides per trial; with the trial count
    grid = uniform_grid(case.a, case.b, grid_n)

    def better(coeffs, best_ratio):
        cert = evaluate_sides(case, candidate(grid, coeffs))
        return cert.ratio > best_ratio * (1.0 + IMPROVEMENT_MARGIN), cert.ratio

    best = np.zeros(degree + 1)
    best[0] = 1.0
    best_ratio = evaluate_sides(case, candidate(grid, best)).ratio
    evals, step = 0, 0.5
    while evals < budget and step >= 1e-3:
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
    return best, evaluate_sides(case, candidate(grid, best)), evals


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


def basis_sides(case, degree=4, grid_n=256):
    grid = uniform_grid(case.a, case.b, grid_n)
    return BasisSides(case, corpus._polynomial(grid, np.eye(degree + 1), "basis"))


def right_exponents(case):
    # the exponent of each right-hand norm left in the case's quotient
    return [p for _, _, p, _ in basis_sides(case, 1, 4).quotient()[3]]


#: the cases whose quotient has L^2 norms on the right, solved by singular values:
#: the p = 2 quotient families and Gagliardo-Nirenberg at p = q = gamma = 2
EXACT_CASES = [case for case in SEARCH_CASES if set(right_exponents(case)) == {2.0}]


@pytest.mark.parametrize("grid_n", [64, 129])
@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c.family.value)
def test_block_search_matches_per_function_search(case, grid_n):
    # the solve over the basis reaches at least the ratio of the compass rounds
    # scored one function at a time; n = 129 is odd, so the final certificate
    # takes the interpolated coarse pass
    _, cert, _ = reference_search(validate_case(case), 200, grid_n=grid_n)
    result = sharpness_search(case, budget=200, grid_n=grid_n)
    assert result.certificate.ratio >= cert.ratio * (1.0 - 1e-12)


def count_trials(monkeypatch) -> list:
    # one entry per row that BasisSides.ratio scores
    calls, ratio = [], BasisSides.ratio

    def counted(self, coeffs):
        calls.append(1)
        return ratio(self, coeffs)

    monkeypatch.setattr(BasisSides, "ratio", counted)
    return calls


#: ckn off p = q = 2, a product of an L^2 and an L^3 norm under an L^2.4 norm,
#: which a compass search served before the power steps took L^p norms
COMPASS_CASE = _case(Family.CKN, alpha=0.9, p=2.0, q=3.0, delta=0.5, d=0.8, e=0.3)


def test_budget_is_a_cap(monkeypatch):
    case = COMPASS_CASE
    trials = count_trials(monkeypatch)
    small = sharpness_search(case, budget=10**4)
    assert sum(trials) < 10**4
    large = sharpness_search(case, budget=10**5)
    assert np.array_equal(small.coefficients, large.coefficients)
    assert small.certificate == large.certificate


@pytest.mark.parametrize("case", SEARCH_CASES, ids=lambda c: c.family.value)
def test_seed_changes_no_result(case):
    first = sharpness_search(case, budget=1000, seed=0, grid_n=64)
    other = sharpness_search(case, budget=1000, seed=31, grid_n=64)
    assert np.array_equal(first.coefficients, other.coefficients)
    assert first.certificate == other.certificate


# --- the exact optimum of the p = 2 quotient families ---------------------------

#: cases solved directly because a factor of power 0 leaves one L^2 factor,
#: whatever the exponent of the other: gagliardo-nirenberg at s = 1 and ckn at
#: delta = 1 (so r = p = 2)
ZERO_POWER_CASES = [
    _case(Family.GAGLIARDO_NIRENBERG, alpha=0.9, p=4.0, q=2.0, s=1.0),
    _case(Family.CKN, alpha=0.9, p=2.0, q=3.0, delta=1.0, d=0.8, e=0.3),
]

#: ckn at d = 1 + e, where c = e and the L^2 norm of v with weight x^e cancels
CANCELLING_CASES = [
    _case(Family.CKN, alpha=0.9, p=2.0, q=2.0, delta=0.5, d=1.25, e=0.25),
    _case(Family.HAD_CKN, alpha=0.9, p=2.0, q=2.0, delta=0.25, d=1.5, e=0.5),
]

#: covered cases beyond the benchmark's first cases: theta = 2, sobolev-beta at p = 2,
#: and ckn at delta = 0 and 1, where one factor of the product has power 0
MORE_EXACT_CASES = [
    _case(Family.POINCARE_SOBOLEV_LQ, alpha=0.75, p=2.0, theta=2.0),
    _case(Family.SOBOLEV_BETA, alpha=0.9, beta=0.0, p=2.0),
    _case(Family.SOBOLEV_BETA, alpha=0.9, beta=0.3, p=2.0),
    _case(Family.CKN, alpha=0.9, p=2.0, q=2.0, delta=0.0, d=0.8, e=0.3),
    _case(Family.CKN, alpha=0.9, p=2.0, q=2.0, delta=1.0, d=0.8, e=0.3),
    *CANCELLING_CASES,
    *ZERO_POWER_CASES,
]


def case_id(case):
    # the family, and what sets a case apart from the benchmark's first case
    tags = [f"delta-{case.delta:g}"] if case.delta in (0.0, 1.0) else []
    tags += [f"{name}-{getattr(case, name):g}" for name in ("p", "q")
             if getattr(case, name) not in (None, 2.0)]
    tags += ["c-equals-e"] if case.d is not None and case.d == 1.0 + case.e else []
    return "-".join([case.family.value, *tags])


def test_cancelled_factor_leaves_one_quotient():
    # at c = e the ckn ratio is (|v|_{2, x^e} / |dv|_{2, x^d})^delta over a constant
    for case in CANCELLING_CASES:
        (_, _, _, delta), = basis_sides(case, 1, 16).quotient()[3]
        assert delta == 1.0


def is_product(case):
    # a family whose right side is a product of norm powers
    return case.family.value.endswith(("ckn", "uncertainty"))


def gram(case, basis, side):
    # the Gram matrix of a squared side by polarisation of single certificates
    def squared(u):
        return getattr(evaluate_sides(case, u, disc_tol=0.0), side) ** 2

    k = len(basis)
    out = np.empty((k, k))
    for i in range(k):
        out[i, i] = squared(basis[i])
        for j in range(i):
            out[i, j] = out[j, i] = (squared(basis[i] + basis[j])
                                     - squared(basis[i] - basis[j])) / 4.0
    return out


def left_map(case, u):
    # the samples under the sup norm: u, or its order-beta derivative
    beta = case.beta or 0.0
    return caputo_derivative(u, beta).samples if beta > 0.0 else u.samples


def reference_optimum(case, grid_n, degree=4):
    # the best grid ratio over the basis: the top generalised eigenvalue of the
    # Gram matrices of the L^2 sides, or the dual norm of each node's values;
    # a Gagliardo-Nirenberg ratio is its L^2 quotient to the power s
    assert case.theta in (None, 2.0), "an L^theta side with theta != 2 is no Gram form"
    grid = uniform_grid(case.a, case.b, grid_n)
    basis = corpus._polynomial(grid, np.eye(degree + 1), "basis")
    power = case.s or 1.0
    # at s = 1 the rhs of Gagliardo-Nirenberg is the L^2 norm of the derivative alone
    rhs = gram(replace(case, s=1.0) if case.s else case, basis, "rhs_norm_product")
    if case.family.value.endswith(("hardy", "-lq", "nirenberg")):
        best = scipy.linalg.eigh(gram(case, basis, "lhs"), rhs, eigvals_only=True)[-1]
    else:
        values = np.array([left_map(case, u) for u in basis])
        best = np.max(np.einsum("ij,ij->j", values, np.linalg.solve(rhs, values)))
    return math.sqrt(best) ** power / constant(case)


@pytest.mark.parametrize("grid_n", [64, 129])
@pytest.mark.parametrize("case", [case for case in EXACT_CASES + MORE_EXACT_CASES
                                  if case.theta in (None, 2.0) and not is_product(case)],
                         ids=case_id)
def test_exact_optimum_matches_the_gram_reference(case, grid_n):
    result = sharpness_search(case, budget=1, grid_n=grid_n)
    assert result.certificate.ratio == pytest.approx(reference_optimum(case, grid_n),
                                                     rel=1e-10, abs=0.0)
    assert np.max(np.abs(result.coefficients)) == 1.0
    initial = sharpness_search(case, budget=0, grid_n=grid_n).certificate.ratio
    assert result.certificate.ratio > initial


def weighted_gram(rows, grid, weights):
    # the Gram matrix of the squared trapezoid L^2 norm against the node weights
    q = np.full(grid.n + 1, grid.h)
    q[[0, -1]] /= 2.0
    return (rows * (q * weights)) @ rows.T


def product_reference(case, grid_n, degree=4):
    # the best grid ratio over the basis of a ckn or uncertainty case at p = 2, a
    # fixed power of A / (B^delta C^(1 - delta)) for Gram forms A, B and C.  For
    # every s > 0, B^delta C^(1 - delta) <= delta s B + (1 - delta) s^(-delta/(1 -
    # delta)) C, with equality at one s (weighted AM-GM), so the best of A over
    # B^delta C^(1 - delta) is the largest over s of the top generalised
    # eigenvalue of A against that sum: found on a log scan of s, then refined
    case = validate_case(case)
    grid = uniform_grid(case.a, case.b, grid_n)
    basis = corpus._polynomial(grid, np.eye(degree + 1), "basis")
    hadamard = case.family.value.startswith("hadamard-")
    derivatives = [(hadamard_derivative if hadamard else caputo_derivative)(u, case.alpha)
                   for u in basis]
    dgrid, t = derivatives[0].grid, grid.nodes
    x = case.a * np.exp(dgrid.nodes) if hadamard else dgrid.nodes  # t at each derivative node
    v = np.array([u.samples for u in basis])
    dv = np.array([u.samples for u in derivatives])
    if case.family.value.endswith("ckn"):
        # |v|_{2, x^c} over |dv|_{2, x^d}^delta |v|_{2, x^e}^(1 - delta)
        delta, power = case.delta, 0.5
        a = weighted_gram(v, grid, t ** (2.0 * case.c))
        b = weighted_gram(dv, dgrid, x ** (2.0 * case.d))
        c = weighted_gram(v, grid, t ** (2.0 * case.e))
    else:
        # |v|_2^2 over |dv|_2 |v|_{2, x}
        delta, power = 0.5, 1.0
        a, b = weighted_gram(v, grid, 1.0), weighted_gram(dv, dgrid, 1.0)
        c = weighted_gram(v, grid, t**2)

    def top(log_s):
        s = math.exp(log_s)
        right = delta * s * b + (1.0 - delta) * s ** (-delta / (1.0 - delta)) * c
        return scipy.linalg.eigh(a, right, eigvals_only=True)[-1]

    if delta in (0.0, 1.0):
        best = scipy.linalg.eigh(a, b if delta else c, eigvals_only=True)[-1]
    else:
        scan = np.linspace(-20.0, 20.0, 401)
        values = [top(log_s) for log_s in scan]
        k = int(np.argmax(values))
        assert 0 < k < scan.size - 1
        found = scipy.optimize.minimize_scalar(lambda log_s: -top(log_s), method="bounded",
                                               bounds=(scan[k - 1], scan[k + 1]),
                                               options={"xatol": 1e-12})
        best = max(values[k], -found.fun)
    return best**power / constant(case)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid_n", [64, 129])
@pytest.mark.parametrize("case", [case for case in EXACT_CASES + MORE_EXACT_CASES
                                  if is_product(case)], ids=case_id)
def test_product_optimum_matches_the_eigenvalue_scan(case, grid_n):
    # at delta = 1 or c = e a ckn product is one quotient, at delta = 0 (c = e too)
    # its ratio is constant, and nothing divides by 1 - delta
    result = sharpness_search(case, budget=1, grid_n=grid_n)
    assert result.certificate.ratio == pytest.approx(product_reference(case, grid_n),
                                                     rel=1e-9, abs=0.0)
    assert np.max(np.abs(result.coefficients)) == 1.0


def nelder_mead_optimum(case, grid_n, degree=4, starts=3):
    # the best grid ratio that Nelder-Mead reaches from u = t - a and from
    # seeded random starts, each run restarted once from where it ends
    sides = basis_sides(case, degree, grid_n)

    def negative(coeffs):
        return -sides.ratio(coeffs)

    rng = np.random.default_rng(0)
    best = -math.inf
    for start in [np.eye(degree + 1)[0], *rng.uniform(-1.0, 1.0, (starts - 1, degree + 1))]:
        for _ in range(2):
            found = scipy.optimize.minimize(negative, start, method="Nelder-Mead",
                                            options={"xatol": 1e-9, "fatol": 1e-14})
            start = found.x / np.max(np.abs(found.x))
        best = max(best, -found.fun)
    return best


def test_product_search_reaches_the_nelder_mead_ratio():
    result = sharpness_search(COMPASS_CASE, budget=1000, grid_n=64)
    assert result.certificate.ratio >= nelder_mead_optimum(COMPASS_CASE, 64) * (1.0 - 1e-9)


#: the first case of each lattice family with p or q other than 2: an L^p norm on
#: the right, solved by Newton power steps
LP_CASES = [next(case for case in cases if {case.p, case.q} - {None, 2.0})
            for cases in _lattices(1.0, 2.0).values()]


@pytest.mark.parametrize("case", LP_CASES, ids=case_id)
def test_newton_power_steps_reach_the_nelder_mead_ratio(case):
    result = sharpness_search(case, budget=1, grid_n=64)
    assert result.certificate.ratio >= nelder_mead_optimum(case, 64) * (1.0 - 1e-9)
    assert np.max(np.abs(result.coefficients)) == 1.0


@pytest.mark.parametrize("grid_n", [64, 129])
@pytest.mark.parametrize("theta", [1.5, 3.0])
def test_boyd_iteration_reaches_the_nelder_mead_ratio(theta, grid_n):
    case = _case(Family.POINCARE_SOBOLEV_LQ, alpha=0.6, p=2.0, theta=theta)
    result = sharpness_search(case, budget=1, grid_n=grid_n)
    assert result.certificate.ratio >= nelder_mead_optimum(case, grid_n) * (1.0 - 1e-9)
    assert np.max(np.abs(result.coefficients)) == 1.0


@pytest.mark.parametrize("case", EXACT_CASES + ZERO_POWER_CASES, ids=case_id)
def test_exact_optimum_is_at_least_the_compass_ratio(case):
    compass = reference_search(validate_case(case), 1000)[1].ratio
    for seed in (0, 1):
        assert sharpness_search(case, budget=1000, seed=seed).certificate.ratio >= compass
    # every positive budget gives the same result
    assert (sharpness_search(case, budget=5).certificate
            == sharpness_search(case, budget=7).certificate)


#: the unweighted families at a = 0: the sup families and poincare-sobolev-lq
SUP_CASES_AT_ZERO = [
    InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.75, p=2.0),
    InequalityCase(Family.SEQ_POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.8, beta=0.3, p=2.0),
    InequalityCase(Family.SOBOLEV_BETA, a=0.0, b=1.0, alpha=0.9, beta=0.3, p=2.0),
    InequalityCase(Family.POINCARE_SOBOLEV_LQ, a=0.0, b=1.0, alpha=0.75, p=2.0, theta=2.0),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("degree,grid_n,cases", [
    (0, 16, EXACT_CASES + MORE_EXACT_CASES),
    # n + 1 nodes and n + 1 basis functions that vanish at a: rank n at most
    (16, 16, EXACT_CASES + MORE_EXACT_CASES),
    (4, 64, SUP_CASES_AT_ZERO),
    (16, 16, SUP_CASES_AT_ZERO),
], ids=["degree-0", "degree-n", "sup-at-zero", "sup-at-zero-degree-n"])
def test_exact_optimum_never_loses_to_the_initial_iterate(degree, grid_n, cases):
    for case in cases:
        initial = sharpness_search(case, budget=0, degree=degree, grid_n=grid_n)
        result = sharpness_search(case, budget=3, degree=degree, grid_n=grid_n)
        assert result.certificate.ratio >= initial.certificate.ratio, case.family
        assert np.isfinite(result.coefficients).all()
        assert np.max(np.abs(result.coefficients)) == 1.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exact_optimum_of_degenerate_forms_is_none():
    # a zero right map has no best ratio, and values out of float range give none
    left, weights = np.ones((3, 10)), np.ones(10)

    def exact(left, left_w, theta, right, p=2.0):
        return corpus._exact(left, left_w, theta, ((right, weights, p),))

    assert exact(left, None, None, np.zeros((3, 10))) is None
    assert exact(left, weights, 2.0, np.full((3, 10), np.inf)) is None
    assert exact(left * 1e300, weights * 1e300, 2.0, np.eye(3, 10)) is None
    assert exact(left * 1e300, weights * 1e300, 1.5, np.eye(3, 10)) is None
    assert exact(left * 1e300, None, None, np.eye(3, 10) * 1e-300) is None
    assert exact(left * 1e300, None, None, np.eye(3, 10) * 1e-300, 4.0) is None


def test_ratio_is_the_fine_grid_ratio():
    grid = uniform_grid(1.0, 2.0, 64)
    basis = corpus._polynomial(grid, np.eye(3), "basis")
    coeffs = np.array([[1.0, 0.5, -0.25], [0.3, -2.0, 1.0], [0.0, 0.0, 1.0]])
    for case in SEARCH_CASES[:-1]:
        sides = BasisSides(case, basis)
        for row in coeffs:
            cert = evaluate_sides(case, candidate(grid, row), disc_tol=0.0)
            assert sides.ratio(row) == pytest.approx(cert.ratio, rel=1e-12, abs=0.0), case.family


def test_ratio_raises_the_error_of_evaluate_sides():
    grid = uniform_grid(1.0, 2.0, 16)
    case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    ramp = candidate(grid, [1.0])
    one = GridFn(grid, np.ones(17), name="one")
    sides = BasisSides(case, [ramp, one])
    cert = evaluate_sides(case, ramp, disc_tol=0.0)
    assert sides.ratio([1.0, 0.0]) == pytest.approx(cert.ratio, rel=1e-12, abs=0.0)
    with pytest.raises(HypothesisError) as expected:
        evaluate_sides(case, one)  # |u(a)| = 1
    with pytest.raises(HypothesisError) as error:
        sides.ratio([0.0, 1.0])
    assert error.type is HypothesisError and str(error.value) == str(expected.value)
    # a non-finite side: the NumericError of evaluate_sides
    huge = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=1e300)
    with pytest.raises(NumericError) as expected:
        evaluate_sides(huge, ramp)
    with pytest.raises(NumericError) as error:
        BasisSides(huge, [ramp]).ratio([1.0])
    assert error.type is NumericError and str(error.value) == str(expected.value)


def test_empty_basis_is_refused():
    case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    with pytest.raises(DomainError, match="a basis needs at least one function"):
        BasisSides(case, [])


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


def test_negative_polynomial_count_is_refused():
    grid = uniform_grid(0.0, 1.0, 16)
    with pytest.raises(ParamError, match=re.escape(
            "polynomial corpus needs count >= 0 (got -1)")):
        generate(CorpusSpec.polynomials(grid, 3, -1, 0))
    assert generate(CorpusSpec.polynomials(grid, 3, 0, 0)) == []


def test_polynomial_corpus_peaks_at_its_own_size():
    # the functions share the block of samples the Horner pass wrote, without a copy
    grid = uniform_grid(0.0, 1.0, 1024)
    tracemalloc.start()
    try:
        fns = generate(CorpusSpec.polynomials(grid, 3, 2000, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(fns) == 2000 and not fns[0].samples.flags.writeable
    assert peak <= 1.1 * 2000 * (grid.n + 1) * 8


def test_polynomial_count_is_limited_before_allocation(monkeypatch):
    grid = uniform_grid(1.0, 2.0, 16)
    limit = MAX_CORPUS_SAMPLES // 17
    monkeypatch.setattr(corpus, "_polynomial", lambda *args, **kw: pytest.fail("drawn"))
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
