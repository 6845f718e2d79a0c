import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from fracineq import (
    Certificate,
    CorpusSpec,
    Family,
    GridFn,
    HypothesisError,
    InequalityCase,
    NormKind,
    NumericError,
    ParamError,
    SizeError,
    caputo_derivative,
    constant,
    evaluate_sides,
    gamma_fn,
    generate,
    norm,
    sobolev_beta_statement_constant,
    sweep,
    uniform_grid,
    validate_case,
)

HARDY_LHS = 0.3372026673680228  # sqrt(3/2 - 2 ln 2), quadrature oracle in test_grids


def case(family, **kw):
    return InequalityCase(family=family, **kw)


def linear_fn(a, b, n, name="t-a"):
    g = uniform_grid(a, b, n)
    return GridFn(g, g.nodes - a, name=name)


# one modest valid case per family on [1, 2]
VALID = {
    Family.POINCARE_SOBOLEV: dict(alpha=0.75, p=2.0),
    Family.POINCARE_SOBOLEV_LQ: dict(alpha=0.75, p=2.0, theta=3.0),
    Family.SOBOLEV_BETA: dict(alpha=0.9, beta=0.1, p=2.0),
    Family.HARDY: dict(alpha=0.75, p=2.0),
    Family.WEIGHTED_HARDY: dict(alpha=0.75, p=2.0, gamma=1.5),
    Family.GAGLIARDO_NIRENBERG: dict(alpha=0.75, p=2.0, q=2.0, s=0.5),
    Family.CKN: dict(alpha=0.9, p=2.0, q=2.0, delta=0.5, d=1.0, e=0.2),
    Family.SEQ_POINCARE_SOBOLEV: dict(alpha=0.8, beta=0.4, p=2.0),
    Family.SEQ_HARDY: dict(alpha=0.8, beta=0.4, p=2.0),
    Family.SEQ_GAGLIARDO_NIRENBERG: dict(alpha=0.5, beta=0.8, p=2.0, q=2.0, s=0.5),
    Family.HAD_POINCARE_SOBOLEV: dict(alpha=0.75, p=2.0),
    Family.HAD_HARDY: dict(alpha=0.75, p=2.0),
    Family.HAD_WEIGHTED_HARDY: dict(alpha=0.75, p=2.0, gamma=-0.5),
    Family.HAD_GAGLIARDO_NIRENBERG: dict(alpha=0.75, p=2.0, q=2.0, s=0.5),
    Family.HAD_CKN: dict(alpha=0.9, p=2.0, q=2.0, delta=0.5, d=1.0, e=0.2),
    Family.UNCERTAINTY: dict(alpha=0.75, p=2.0),
    Family.HAD_UNCERTAINTY: dict(alpha=0.75, p=2.0),
}


# --- validation: one test per documented rejection clause --------------------

def test_ps_rejects_small_alpha():
    with pytest.raises(ParamError, match=r"alpha in \(1/p, 1\]"):
        validate_case(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.4, p=2.0))


def test_ps_rejects_p_not_above_one():
    with pytest.raises(ParamError, match=r"p > 1"):
        validate_case(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.9, p=1.0))


@pytest.mark.parametrize("family", [
    Family.HARDY, Family.WEIGHTED_HARDY, Family.UNCERTAINTY,
    Family.HAD_POINCARE_SOBOLEV, Family.HAD_HARDY, Family.HAD_UNCERTAINTY,
])
def test_hardy_type_families_reject_nonpositive_a(family):
    kw = {"gamma": 1.0} if family in (Family.WEIGHTED_HARDY,) else {}
    with pytest.raises(ParamError, match="a > 0"):
        validate_case(case(family, a=0.0, b=1.0, alpha=0.9, p=2.0, **kw))


def test_ckn_rejects_nonpositive_a():
    with pytest.raises(ParamError, match="a > 0"):
        validate_case(case(Family.CKN, a=-1.0, b=1.0, alpha=0.75, p=2.0, q=2.0,
                           delta=0.5, d=1.0, e=0.0))


def test_ckn_rejects_broken_exponent_relation():
    # stored r inside the delta window but off the exponent relation
    with pytest.raises(ParamError, match=r"1/r = delta/p \+ \(1-delta\)/q"):
        validate_case(case(Family.CKN, a=1.0, b=2.0, alpha=0.75, p=2.0, q=2.0,
                           r=2.1, delta=0.5, d=1.0, e=0.0))


def test_ckn_rejects_delta_zero_with_mismatched_r():
    # delta=0 forces q=r; a different stored r violates the window clause
    with pytest.raises(ParamError, match="requires"):
        validate_case(case(Family.CKN, a=1.0, b=2.0, alpha=0.75, p=2.0, q=2.0,
                           r=3.0, delta=0.0, d=1.0, e=0.0))


def test_ckn_rejects_delta_outside_window():
    # stored r=5 with p=4, q=2: window [(r-q)/r, p/r] = [0.6, 0.8]
    with pytest.raises(ParamError, match=r"delta in \[\(r-q\)/r, p/r\]"):
        validate_case(case(Family.CKN, a=1.0, b=2.0, alpha=0.9, p=4.0, q=2.0,
                           r=5.0, delta=0.3, d=1.0, e=0.0))


def test_ckn_rejects_r_above_p_plus_q():
    with pytest.raises(ParamError, match=r"p \+ q >= r"):
        validate_case(case(Family.CKN, a=1.0, b=2.0, alpha=0.9, p=4.0, q=2.0,
                           r=10.0, delta=0.3, d=1.0, e=0.0))


def test_ckn_rejects_nonpositive_weight_clause():
    with pytest.raises(ParamError, match=r"1 \+ \(d-1\)\*p > 0"):
        validate_case(case(Family.CKN, a=1.0, b=2.0, alpha=0.9, p=3.0, q=3.0,
                           delta=0.5, d=0.5, e=0.0))


def test_ckn_alpha_window():
    with pytest.raises(ParamError, match=r"alpha in \(1 - 1/q, 1\)"):
        validate_case(case(Family.CKN, a=1.0, b=2.0, alpha=0.4, p=2.0, q=2.0,
                           delta=0.5, d=1.0, e=0.0))


def test_gn_rejects_broken_exponent_relation():
    with pytest.raises(ParamError, match=r"gamma\*s/q \+ gamma\*\(1-s\)/p = 1"):
        validate_case(case(Family.GAGLIARDO_NIRENBERG, a=0.0, b=1.0, alpha=0.9,
                           p=2.0, q=2.0, s=0.5, gamma=3.0))


@pytest.mark.parametrize("family", [Family.GAGLIARDO_NIRENBERG, Family.HAD_GAGLIARDO_NIRENBERG])
def test_gn_rejects_a_gamma_below_one_within_the_relation_tolerance(family):
    # p = 1, s = 0: the relation reads gamma = 1, which 1 - 5e-11 meets within
    # 1e-10; as the left norm's exponent it would fail every certificate
    with pytest.raises(ParamError) as raised:
        validate_case(case(family, a=1.0, b=2.0, alpha=0.9, p=1.0, q=2.0, s=0.0,
                           gamma=0.99999999995))
    assert str(raised.value) == f"{family.value}: requires gamma >= 1 (got gamma=0.99999999995)"
    assert validate_case(case(family, a=1.0, b=2.0, alpha=0.9, p=1.0, q=2.0, s=0.0,
                              gamma=1.00000000005)).gamma == 1.00000000005


def test_gn_accepts_consistent_gamma_for_all_s():
    # p=q=2 and gamma=2 satisfy the relation identically in s
    for s in (0.0, 0.3, 1.0):
        validated = validate_case(case(Family.GAGLIARDO_NIRENBERG, a=0.0, b=1.0,
                                       alpha=0.9, p=2.0, q=2.0, s=s, gamma=2.0))
        assert validated.gamma == 2.0


def test_gn_derives_gamma_when_absent():
    validated = validate_case(case(Family.GAGLIARDO_NIRENBERG, a=0.0, b=1.0,
                                   alpha=0.9, p=4.0, q=2.0, s=0.5))
    assert validated.gamma == pytest.approx(1.0 / (0.25 + 0.125), rel=1e-15)


def test_sequential_alpha_window_and_positivity_guard():
    with pytest.raises(ParamError, match=r"alpha in \(1/q, 1\)"):
        validate_case(case(Family.SEQ_POINCARE_SOBOLEV, a=0.0, b=1.0,
                           alpha=0.4, beta=0.5, p=2.0))
    # p < 2: the alpha window alone admits alpha <= 1/p where the constant
    # is undefined; the explicit guard rejects it
    with pytest.raises(ParamError, match=r"alpha > 1/p"):
        validate_case(case(Family.SEQ_POINCARE_SOBOLEV, a=0.0, b=1.0,
                           alpha=0.5, beta=0.5, p=1.5))


def test_sobolev_beta_window():
    with pytest.raises(ParamError, match=r"alpha in \(beta \+ 1/p, 1\]"):
        validate_case(case(Family.SOBOLEV_BETA, a=0.0, b=1.0, alpha=0.6,
                           beta=0.2, p=2.0))
    with pytest.raises(ParamError, match=r"beta in \[0, 1\)"):
        validate_case(case(Family.SOBOLEV_BETA, a=0.0, b=1.0, alpha=0.9,
                           beta=1.0, p=2.0))


def test_inactive_fields_are_rejected():
    with pytest.raises(ParamError, match="not used by this family"):
        validate_case(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.9,
                           p=2.0, gamma=1.0))


def test_missing_field_is_rejected():
    with pytest.raises(ParamError, match="field 'p'"):
        validate_case(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.9))


@pytest.mark.parametrize("family", list(Family))
def test_missing_or_nonfinite_fields_are_param_errors(family):
    kw = dict(a=1.0, b=2.0, **VALID[family])
    validated = validate_case(case(family, **kw))
    for name in kw:
        with pytest.raises(ParamError, match=f"requires field '{name}'"):
            validate_case(case(family, **{**kw, name: None}))
    # derived exponents (gamma, r, c) too, when given explicitly
    given = {f: v for f, v in vars(validated).items() if f != "family" and v is not None}
    for name in given:
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ParamError, match=rf"requires a finite {name} \(got"):
                validate_case(case(family, **{**given, name: bad}))


# --- constants ---------------------------------------------------------------

def test_ps_constant_alpha_one():
    c = constant(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=1.0, p=2.0))
    assert c == pytest.approx(1.0, rel=1e-14)


def test_ps_constant_alpha_075():
    # 1/(sqrt(1/2) Gamma(3/4)), oracle-evaluated
    oracle = float(1.0 / (mpmath.sqrt(mpmath.mpf("0.5")) * mpmath.gamma(mpmath.mpf("0.75"))))
    assert oracle == pytest.approx(1.1540674772329393, rel=1e-14)
    c = constant(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.75, p=2.0))
    assert c == pytest.approx(oracle, rel=1e-13)


def test_hardy_constant_unit_case():
    c = constant(case(Family.HARDY, a=1.0, b=2.0, alpha=1.0, p=2.0))
    assert c == pytest.approx(1.0, rel=1e-14)


def test_weighted_hardy_reduces_to_hardy_at_gamma_zero():
    for alpha, p in ((0.8, 2.0), (0.9, 3.0)):
        ch = constant(case(Family.HARDY, a=1.0, b=3.0, alpha=alpha, p=p))
        cw = constant(case(Family.WEIGHTED_HARDY, a=1.0, b=3.0, alpha=alpha,
                           p=p, gamma=0.0))
        assert cw == pytest.approx(ch, rel=1e-14)


def test_weighted_hardy_at_gamma_zero_is_hardy_on_a_tiny_interval():
    # a^-1 alone overflows on [1e-320, 2e-320]; the constant does not
    for alpha, p in ((0.999, 2.0), (0.8, 3.0)):
        kw = dict(a=1e-320, b=2e-320, alpha=alpha, p=p)
        ch = constant(case(Family.HARDY, **kw))
        assert math.isfinite(ch)
        assert constant(case(Family.WEIGHTED_HARDY, gamma=0.0, **kw)) == ch
    assert constant(case(Family.HARDY, a=1e-320, b=2e-320, alpha=0.999, p=2.0)) \
        == 2.0904150197628457


def test_hadamard_ps_constant_unit_case():
    c = constant(case(Family.HAD_POINCARE_SOBOLEV, a=1.0, b=math.e,
                      alpha=1.0, p=2.0))
    assert c == pytest.approx(1.0, rel=1e-14)


def test_uncertainty_inherits_hardy_constant():
    kw = dict(a=1.0, b=2.0, alpha=0.8, p=2.0)
    assert constant(case(Family.UNCERTAINTY, **kw)) == \
        constant(case(Family.HARDY, **kw))
    assert constant(case(Family.HAD_UNCERTAINTY, **kw)) == \
        constant(case(Family.HAD_HARDY, **kw))


def test_sobolev_beta_proof_vs_statement_constants():
    c = case(Family.SOBOLEV_BETA, a=0.0, b=3.0, alpha=0.9, beta=0.1, p=2.0)
    proof = constant(c)
    statement = sobolev_beta_statement_constant(c)
    assert statement == pytest.approx(proof * 3.0 ** 0.5, rel=1e-14)


def test_ckn_delta_zero_constant_is_one():
    c = case(Family.CKN, a=1.0, b=2.0, alpha=0.75, p=2.0, q=2.0, delta=0.0,
             d=1.0, e=0.5)
    assert constant(c) == 1.0


def test_ckn_composes_weighted_hardy_to_the_delta():
    kw = dict(a=1.0, b=2.0, alpha=0.9, p=2.0)
    cw = constant(case(Family.WEIGHTED_HARDY, gamma=-1.2, **kw))
    cc = constant(case(Family.CKN, q=2.0, delta=0.5, d=1.2, e=0.0, **kw))
    assert cc == pytest.approx(cw**0.5, rel=1e-14)


def test_an_overflowing_constant_is_refused_without_a_warning():
    # b^|d| times the chain overflows on [1, 1e300]: refused, and numpy warns of nothing
    c = case(Family.HAD_CKN, a=1.0, b=1e300, alpha=0.9, p=2.0, q=2.0, delta=0.5, d=1.0,
             e=0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"constant is not a positive finite number"):
            constant(c)


def test_ps_constant_blows_up_as_alpha_drops_to_1_over_p():
    p = 2.0
    values = [constant(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0,
                            alpha=0.5 + eps, p=p))
              for eps in (0.2, 0.1, 0.05, 0.01, 0.001)]
    assert all(v2 > v1 for v1, v2 in zip(values, values[1:]))
    # growth like ((alpha p - 1)/(p-1))^(-1/2)
    assert values[-1] > 8.0 * values[0]


# --- certificates ------------------------------------------------------------

def test_ps_equality_probe():
    u = linear_fn(0.0, 1.0, 512)
    cert = evaluate_sides(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0,
                               alpha=1.0, p=2.0), u)
    assert cert.lhs == pytest.approx(1.0, abs=1e-14)
    assert cert.rhs == pytest.approx(1.0, abs=1e-12)
    assert cert.ratio == pytest.approx(1.0, abs=1e-12)
    assert cert.passed


def test_hardy_example_certificate():
    u = linear_fn(1.0, 2.0, 1024)
    cert = evaluate_sides(case(Family.HARDY, a=1.0, b=2.0, alpha=1.0, p=2.0), u)
    assert cert.lhs == pytest.approx(HARDY_LHS, abs=1e-6)
    assert cert.rhs == pytest.approx(1.0, abs=1e-12)
    assert cert.passed


def test_uncertainty_zero_function_passes():
    g = uniform_grid(1.0, 2.0, 64)
    u = GridFn(g, np.zeros(65))
    cert = evaluate_sides(case(Family.UNCERTAINTY, a=1.0, b=2.0, alpha=0.9,
                               p=2.0), u)
    assert cert.lhs == 0.0 and cert.rhs == 0.0
    assert cert.ratio == 0.0
    assert cert.passed


def test_boundary_hypothesis_violation_raises():
    g = uniform_grid(0.0, 1.0, 64)
    u = GridFn(g, np.ones(65))
    with pytest.raises(HypothesisError):
        evaluate_sides(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0,
                            alpha=1.0, p=2.0), u)


def test_grid_interval_mismatch_raises():
    u = linear_fn(0.0, 2.0, 64)
    with pytest.raises(ParamError, match="case interval"):
        evaluate_sides(case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0,
                            alpha=1.0, p=2.0), u)


def test_ckn_delta_zero_certificate_degenerates_to_identity():
    u = linear_fn(1.0, 2.0, 256)
    cert = evaluate_sides(case(Family.CKN, a=1.0, b=2.0, alpha=0.75, p=2.0,
                               q=2.0, delta=0.0, d=1.0, e=0.5), u)
    assert cert.constant == 1.0
    assert cert.lhs == cert.rhs_norm_product
    assert cert.ratio == 1.0
    assert cert.passed


def test_gn_with_s_one_matches_ps_lq_rhs():
    u = GridFn(uniform_grid(0.0, 1.0, 256),
               (uniform_grid(0.0, 1.0, 256).nodes) ** 2, name="t^2")
    gn = evaluate_sides(case(Family.GAGLIARDO_NIRENBERG, a=0.0, b=1.0,
                             alpha=0.8, p=2.0, q=2.0, s=1.0), u)
    ps = evaluate_sides(case(Family.POINCARE_SOBOLEV_LQ, a=0.0, b=1.0,
                             alpha=0.8, p=2.0, theta=2.0), u)
    assert gn.rhs == pytest.approx(ps.rhs, rel=1e-12)
    assert gn.lhs == pytest.approx(ps.lhs, rel=1e-12)


def test_ratio_stability_under_refinement():
    families = [
        case(Family.POINCARE_SOBOLEV, a=1.0, b=2.0, alpha=0.75, p=2.0),
        case(Family.HARDY, a=1.0, b=2.0, alpha=0.75, p=2.0),
        case(Family.HAD_HARDY, a=1.0, b=2.0, alpha=0.75, p=2.0),
        case(Family.SEQ_POINCARE_SOBOLEV, a=1.0, b=2.0, alpha=0.8, beta=0.4, p=2.0),
    ]
    for c in families:
        g1 = uniform_grid(1.0, 2.0, 256)
        g2 = uniform_grid(1.0, 2.0, 512)
        u1 = GridFn(g1, (g1.nodes - 1.0) * np.exp(g1.nodes))
        u2 = GridFn(g2, (g2.nodes - 1.0) * np.exp(g2.nodes))
        r1 = evaluate_sides(c, u1).ratio
        r2 = evaluate_sides(c, u2).ratio
        assert abs(r2 - r1) <= max(0.05 * r1, 1e-3)


def test_soundness_small_sweep_all_families():
    # one modest case per family over a small random corpus; the full-size
    # sweep runs in the acceptance suite
    grid = uniform_grid(1.0, 2.0, 256)
    corpus = generate(CorpusSpec.polynomials(grid, degree=3, count=5, seed=11))
    assert set(VALID) == set(Family)
    for family, kw in VALID.items():
        cert_case = case(family, a=1.0, b=2.0, **kw)
        for u in corpus:
            cert = evaluate_sides(cert_case, u)
            assert cert.passed, (family, u.name, cert.ratio, cert.disc_tol)


def test_embedding_chain_certificate():
    # higher-order energy controls lower-order energy: for alpha < beta with
    # beta - alpha > 1/2 (p = 2), chain the sup-norm bound on the low-order
    # derivative with the interval length factor
    a, b, alpha, beta = 1.0, 2.0, 0.2, 0.8
    grid = uniform_grid(a, b, 512)
    corpus = generate(CorpusSpec.polynomials(grid, degree=3, count=5, seed=3))
    sb = case(Family.SOBOLEV_BETA, a=a, b=b, alpha=beta, beta=alpha, p=2.0)
    c_embed = constant(sb) * (b - a) ** 0.5
    for u in corpus:
        low = norm(caputo_derivative(u, alpha), NormKind.lp(2.0))
        high = norm(caputo_derivative(u, beta), NormKind.lp(2.0))
        assert low <= c_embed * high * (1.0 + 1e-6)


# --- sweep -------------------------------------------------------------------

def test_sweep_ordering_and_counts():
    grid = uniform_grid(0.0, 1.0, 64)
    corpus = generate(CorpusSpec.powers(grid, [1.0, 2.0]))
    cases = [case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=al, p=2.0)
             for al in (0.8, 0.9, 1.0)]
    cells = sweep(Family.POINCARE_SOBOLEV, cases, corpus)
    assert len(cells) == 6
    assert [c.case.alpha for c in cells] == [0.8, 0.8, 0.9, 0.9, 1.0, 1.0]
    assert [c.function for c in cells] == ["pow:mu=1", "pow:mu=2"] * 3
    assert all(c.certificate is not None and c.certificate.passed for c in cells)


def test_sweep_empty_corpus():
    assert sweep(Family.HARDY, [case(Family.HARDY, a=1.0, b=2.0, alpha=0.9,
                                     p=2.0)], []) == []


def test_sweep_isolates_invalid_case():
    grid = uniform_grid(0.0, 1.0, 64)
    corpus = generate(CorpusSpec.powers(grid, [1.0]))
    good = case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.9, p=2.0)
    bad = case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.3, p=2.0)
    cells = sweep(Family.POINCARE_SOBOLEV, [good, bad, good], corpus)
    assert cells[0].certificate is not None
    assert cells[1].certificate is None and "ParamError" in cells[1].error
    assert cells[2].certificate is not None


def test_sweep_isolates_hypothesis_violation():
    grid = uniform_grid(0.0, 1.0, 64)
    ok_fn = GridFn(grid, grid.nodes.copy(), name="good")
    bad_fn = GridFn(grid, grid.nodes + 1.0, name="nonvanishing")
    cells = sweep(Family.POINCARE_SOBOLEV,
                  [case(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.9, p=2.0)],
                  [ok_fn, bad_fn])
    assert cells[0].certificate is not None and cells[0].certificate.passed
    assert cells[1].certificate is None and "HypothesisError" in cells[1].error


# --- composed constants and companion-grid norms ------------------------------

def test_hadamard_gn_constant_composition():
    # s = 1: the constant is the full L^q chain constant on the log axis
    import math

    a, b, alpha, q = 1.0, 3.0, 0.8, 2.0
    from fracineq import holder_denominator
    chain = ((b - a) ** (1.0 / q) * abs(math.log(b / a)) ** (alpha - 1.0 / q)
             / (holder_denominator(alpha, q) * gamma_fn(alpha)))
    c_full = constant(case(Family.HAD_GAGLIARDO_NIRENBERG, a=a, b=b, alpha=alpha,
                           p=2.0, q=q, s=1.0))
    c_half = constant(case(Family.HAD_GAGLIARDO_NIRENBERG, a=a, b=b, alpha=alpha,
                           p=2.0, q=q, s=0.5))
    assert c_full == pytest.approx(chain, rel=1e-14)
    assert c_half == pytest.approx(chain**0.5, rel=1e-14)


def test_seq_gn_constant_composition():
    # the chain constant depends on the outer order beta and exponent q only
    from fracineq import holder_denominator

    a, b, beta, q = 0.0, 2.0, 0.8, 2.0
    chain = (b - a) ** beta / (holder_denominator(beta, q) * gamma_fn(beta))
    c = constant(case(Family.SEQ_GAGLIARDO_NIRENBERG, a=a, b=b, alpha=0.4,
                      beta=beta, p=3.0, q=q, s=0.5))
    assert c == pytest.approx(chain**0.5, rel=1e-14)


def test_hadamard_derivative_factor_equals_log_weighted_norm():
    # the engine computes the dx/x norm of the derivative on the companion
    # grid, where the measure is flat; resampling the derivative back to the
    # t-grid and using the log-weighted norm kind must agree up to
    # discretization error
    from fracineq import from_log_grid, hadamard_derivative

    errs = []
    for n in (256, 512, 1024):
        grid = uniform_grid(1.0, 2.0, n)
        u = GridFn(grid, (grid.nodes - 1.0) ** 2)
        g = hadamard_derivative(u, 0.6)
        on_tau = norm(g, NormKind.lp(2.0))
        on_t = norm(from_log_grid(g, grid), NormKind.log_weighted_lp(2.0))
        errs.append(abs(on_tau - on_t))
    assert errs[-1] < 5e-4
    assert errs[0] > errs[-1]


def test_certificates_thread_safe():
    # cases, grids, and matrices are immutable; concurrent evaluation must
    # reproduce the serial certificates exactly
    from concurrent.futures import ThreadPoolExecutor

    grid = uniform_grid(1.0, 2.0, 256)
    corpus = generate(CorpusSpec.polynomials(grid, degree=3, count=12, seed=5))
    the_case = case(Family.HAD_HARDY, a=1.0, b=2.0, alpha=0.75, p=2.0)
    serial = [evaluate_sides(the_case, u) for u in corpus]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda u: evaluate_sides(the_case, u), corpus))
    for s, p in zip(serial, parallel):
        assert s.lhs == p.lhs and s.rhs == p.rhs and s.ratio == p.ratio


# --- per-family snapshot -----------------------------------------------------

def test_certificates_match_snapshot_by_family():
    # the first lattice case of every family over two seeded cubics; n is odd
    # so the Richardson pass runs on the interpolated coarse grid
    import json
    from pathlib import Path

    snap = json.loads((Path(__file__).parent / "fixtures"
                       / "certificates_by_family.json").read_text())
    grid = uniform_grid(snap["a"], snap["b"], snap["n"])
    spec = snap["corpus"]
    corpus = {u.name: u for u in generate(CorpusSpec.polynomials(
        grid, spec["degree"], spec["count"], spec["seed"]))}
    rows = snap["certificates"]
    assert {Family(row["family"]) for row in rows} == set(Family)
    assert len(rows) == 2 * len(Family)
    for row in rows:
        cert = evaluate_sides(case(Family(row["family"]), a=snap["a"], b=snap["b"],
                                   **row["params"]), corpus[row["function"]])
        for name in ("constant", "lhs", "rhs_norm_product", "ratio", "disc_tol"):
            assert getattr(cert, name) == pytest.approx(row[name], rel=1e-12), \
                (row["family"], row["function"], name)
        assert cert.passed is row["passed"]


@pytest.mark.parametrize("the_case", [
    # a^(-g-1) b^g overflows the float range
    case(Family.WEIGHTED_HARDY, a=1.0, b=2.0, alpha=0.9, p=2.0, gamma=1e300),
    case(Family.CKN, a=1.0, b=2.0, alpha=0.9, p=2.0, q=2.0, delta=0.5, d=1e300, e=0.5),
    # alpha one ulp above beta + 1/p: the kernel moment rounds to 0
    case(Family.SOBOLEV_BETA, a=0.0, b=1.0, alpha=0.6666666666666667, beta=0.0, p=1.5),
])
def test_constant_out_of_float_range_is_numeric_error(the_case):
    with pytest.raises(NumericError, match="constant is not a positive finite number"):
        constant(the_case)


def test_sweep_raises_numeric_errors_and_records_hypothesis_errors():
    grid = uniform_grid(1.0, 2.0, 16)
    ramp = GridFn(grid, grid.nodes - 1.0, name="ramp")
    lifted = GridFn(grid, grid.nodes, name="lifted")
    case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    cells = sweep(Family.HARDY, [case], [ramp, lifted])
    assert cells[0].certificate.passed
    assert cells[1].error.startswith("HypothesisError: hardy: function must vanish at a")
    huge = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cases in ([case, huge], [huge, case]):
            with pytest.raises(NumericError, match="hardy: non-finite certificate values"):
                sweep(Family.HARDY, cases, [ramp])


# --- one certificate stage: sweep blocks against lone evaluations -------------

def _first_lattice_cases():
    # the first benchmark lattice case of every family, as the snapshot fixture
    # holds them on [1, 2], plus gagliardo-nirenberg at s = 0.25
    import json
    from pathlib import Path

    snap = json.loads((Path(__file__).parent / "fixtures"
                       / "certificates_by_family.json").read_text())
    cases = {case(Family(row["family"]), a=1.0, b=2.0, **row["params"])
             for row in snap["certificates"]}
    for family in (Family.GAGLIARDO_NIRENBERG, Family.HAD_GAGLIARDO_NIRENBERG):
        cases.add(case(family, a=1.0, b=2.0, alpha=0.9, p=2.0, q=2.0, s=0.25))
    return sorted(cases, key=lambda c: (c.family.value, c.s or 0.0))


def _lone(the_case, u):
    # the cell that one evaluate_sides call gives
    try:
        return evaluate_sides(the_case, u), None
    except (HypothesisError, ParamError) as exc:
        return None, f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("n", [128, 129])
def test_sweep_cells_equal_lone_evaluations(n):
    grid = uniform_grid(1.0, 2.0, n)
    cubics = generate(CorpusSpec.polynomials(grid, 3, 40, 11))
    lifted = GridFn(grid, grid.nodes, name="lifted")  # u(a) = 1
    elsewhere = linear_fn(1.0, 3.0, n, name="on [1, 3]")
    corpus = cubics[:3] + [lifted, elsewhere] + cubics[3:]
    by_name = {u.name: u for u in corpus}
    for the_case in _first_lattice_cases():
        family = the_case.family
        other = Family.HARDY if family is not Family.HARDY else Family.CKN
        mismatch = case(other, a=1.0, b=2.0, alpha=0.9, p=2.0)
        cases = [the_case, replace(the_case, p=0.5), mismatch]
        cells = sweep(family, cases, corpus)
        assert [(c.case, c.function) for c in cells] == \
            [(k, u.name) for k in cases for u in corpus]
        for cell in cells:
            if cell.case is mismatch:
                assert cell.error == (f"ParamError: case family {other.value} does not "
                                      f"match sweep family {family.value}")
                continue
            certificate, error = _lone(cell.case, by_name[cell.function])
            assert cell.error == error, (family, cell.function)
            # dataclass equality: every Certificate field with ==
            assert cell.certificate == certificate, (family, cell.function)
        assert sum(c.certificate is not None for c in cells) >= len(cubics)


def test_sweep_computes_no_constant_before_a_row_passes_the_boundary_check():
    grid = uniform_grid(1.0, 2.0, 16)
    lifted = GridFn(grid, grid.nodes, name="lifted")
    ramp = GridFn(grid, grid.nodes - 1.0, name="ramp")
    huge = case(Family.WEIGHTED_HARDY, a=1.0, b=2.0, alpha=0.9, p=2.0, gamma=1e300)
    cells = sweep(Family.WEIGHTED_HARDY, [huge], [lifted, lifted])
    assert [c.error.split(":")[0] for c in cells] == ["HypothesisError"] * 2
    with pytest.raises(NumericError) as raised:
        sweep(Family.WEIGHTED_HARDY, [huge], [lifted, ramp])
    with pytest.raises(NumericError) as expected:
        evaluate_sides(huge, ramp)
    assert str(raised.value) == str(expected.value)
    assert "constant is not a positive finite number" in str(raised.value)


def test_sweep_validates_each_case_once(monkeypatch):
    from fracineq import inequalities

    calls = []

    def counting(the_case):
        calls.append(the_case)
        return validate_case(the_case)

    monkeypatch.setattr(inequalities, "validate_case", counting)
    grid = uniform_grid(1.0, 2.0, 32)
    corpus = generate(CorpusSpec.polynomials(grid, 3, 6, 2))
    cases = [case(Family.HARDY, a=1.0, b=2.0, alpha=al, p=2.0) for al in (0.6, 0.8, 1.0)]
    cells = sweep(Family.HARDY, cases, corpus)
    assert len(cells) == 18 and all(c.certificate.passed for c in cells)
    assert calls == cases


def test_sweep_split_into_blocks_gives_the_same_cells(monkeypatch):
    from fracineq import inequalities

    grid = uniform_grid(1.0, 2.0, 33)
    corpus = generate(CorpusSpec.polynomials(grid, 3, 7, 5))
    corpus.insert(4, GridFn(grid, grid.nodes, name="lifted"))
    cases = [case(Family.HAD_CKN, a=1.0, b=2.0, alpha=0.9, p=2.0, q=2.0, delta=0.5,
                  d=0.8, e=0.3),
             case(Family.HAD_CKN, a=1.0, b=2.0, alpha=0.9, p=3.0, q=2.0, delta=0.5,
                  d=1.2, e=0.3)]
    whole = sweep(Family.HAD_CKN, cases, corpus)
    maps, sizes = inequalities._Spec.maps, []

    def recording(spec, the_case, grid, operands):
        sizes.append(len(operands))
        return maps(spec, the_case, grid, operands)

    monkeypatch.setattr(inequalities._Spec, "maps", recording)
    for rows in (1, 2, 3):
        monkeypatch.setattr(inequalities, "_BLOCK_SAMPLES", rows * (grid.n + 1))
        sizes.clear()
        assert sweep(Family.HAD_CKN, cases, corpus) == whole
        assert max(sizes) == rows  # the block bound holds, and is reached
    assert whole[4].error.startswith("HypothesisError")


def test_largest_sweep_block_holds_five_arrays():
    # the most functions one block holds at n = 1024 (4,092, 32 MiB per array):
    # u, the inner derivative, the outer derivative and two norm temporaries
    # at once, plus the work arrays of one FFT chunk and the per-row
    # bookkeeping (checks, side values: about 100 bytes a row)
    from fracineq import inequalities, operators

    grid = uniform_grid(1.0, 2.0, 1024)
    rows = inequalities._BLOCK_SAMPLES // (grid.n + 1)
    corpus = generate(CorpusSpec.polynomials(grid, 3, rows, 1))
    the_case = case(Family.SEQ_GAGLIARDO_NIRENBERG, a=1.0, b=2.0, alpha=0.5, beta=0.8,
                    p=2.0, q=3.0, s=0.5)
    block = rows * (grid.n + 1) * 8
    # a run of two cases scores both against one set of fine maps, which are
    # released before the coarse maps are built
    for cases in ([the_case], [the_case, replace(the_case, s=0.25)]):
        tracemalloc.start()
        try:
            cells = sweep(Family.SEQ_GAGLIARDO_NIRENBERG, cases, corpus)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cells) == len(cases) * rows
        assert all(c.certificate is not None for c in cells)
        assert peak <= 5 * block + 3 * 8 * operators._FFT_CHUNK + 128 * rows, len(cases)
        del cells


# --- runs: consecutive cases that share their orders share their maps ---------

def _count_applies(monkeypatch):
    # (kind, order, n) of every OperatorMatrix.apply call, in order
    from fracineq import operators

    calls, apply = [], operators.OperatorMatrix.apply

    def counting(self, samples):
        calls.append((self.kind, self.order, self.grid.n))
        return apply(self, samples)

    monkeypatch.setattr(operators.OperatorMatrix, "apply", counting)
    return calls


def test_sweep_applies_each_operator_once_per_run(monkeypatch):
    grid = uniform_grid(1.0, 2.0, 384)  # the FFT path, one block
    corpus = generate(CorpusSpec.polynomials(grid, 3, 3, 7))
    calls = _count_applies(monkeypatch)
    cases = [case(Family.HARDY, a=1.0, b=2.0, alpha=al, p=p)
             for al in (0.6, 0.75) for p in (2.0, 3.0, 4.0)]
    cells = sweep(Family.HARDY, cases, corpus)
    assert all(c.certificate.passed for c in cells)
    # two runs, each on the fine and on the coarse grid
    assert calls == [("caputo", 0.6, 384), ("caputo", 0.6, 192),
                     ("caputo", 0.75, 384), ("caputo", 0.75, 192)]
    calls.clear()
    cases = [case(Family.SEQ_HARDY, a=1.0, b=2.0, alpha=al, beta=be, p=p)
             for al in (0.8, 0.9) for be in (0.3, 0.6) for p in (2.0, 3.0, 4.0)]
    cells = sweep(Family.SEQ_HARDY, cases, corpus)
    assert all(c.certificate is not None for c in cells)
    # the inner and the outer derivative, on the fine and on the coarse grid
    assert calls == [("caputo", order, n)
                     for al in (0.8, 0.9) for be in (0.3, 0.6)
                     for n in (384, 192) for order in (be, al)]


#: per family: a case, another exponent at the same orders, other orders
RUNS = {
    Family.HARDY: (dict(alpha=0.75, p=2.0), dict(p=3.0), dict(alpha=0.9)),
    Family.SOBOLEV_BETA: (dict(alpha=0.9, beta=0.1, p=4.0), dict(p=6.0), dict(beta=0.0)),
    Family.SEQ_HARDY: (dict(alpha=0.8, beta=0.4, p=2.0), dict(p=3.0), dict(beta=0.3)),
    Family.SEQ_GAGLIARDO_NIRENBERG: (dict(alpha=0.5, beta=0.8, p=2.0, q=2.0, s=0.5),
                                     dict(s=0.25), dict(alpha=0.4)),
    Family.HAD_CKN: (dict(alpha=0.9, p=2.0, q=2.0, delta=0.5, d=1.0, e=0.2), dict(d=0.8),
                     dict(alpha=0.8)),
    # cases of a run share norms: ||v||_p here, and the L^q norm of v with weight e in ckn
    Family.GAGLIARDO_NIRENBERG: (dict(alpha=0.75, p=2.0, q=2.0, s=0.5), dict(q=3.0),
                                 dict(alpha=0.9)),
    Family.CKN: (dict(alpha=0.9, p=2.0, q=2.0, delta=0.5, d=1.0, e=0.2), dict(d=0.8),
                 dict(alpha=0.8)),
}


@pytest.mark.parametrize("n", [129, 384])
@pytest.mark.parametrize("family", list(RUNS))
def test_broken_and_interleaved_runs_equal_lone_evaluations(family, n):
    grid = uniform_grid(1.0, 2.0, n)
    cubics = generate(CorpusSpec.polynomials(grid, 3, 4, 3))
    lifted = GridFn(grid, grid.nodes, name="lifted")  # u(a) = 1: a run scores a subset
    elsewhere = linear_fn(1.0, 3.0, n, name="on [1, 3]")  # a block of its own
    corpus = cubics[:2] + [lifted, elsewhere] + cubics[2:]
    by_name = {u.name: u for u in corpus}
    base, same, other = RUNS[family]
    a = case(family, a=1.0, b=2.0, **base)
    a2, b = replace(a, **same), replace(a, **other)
    invalid = replace(a, p=0.5)
    mismatch = case(Family.CKN if family is Family.HARDY else Family.HARDY, a=1.0, b=2.0,
                    alpha=0.9, p=2.0)
    # orders A, B, A; a run split by an invalid case and by another family's case
    cases = [a, a2, b, a, invalid, a2, mismatch, a]
    cells = sweep(family, cases, corpus)
    assert [(c.case, c.function) for c in cells] == \
        [(k, u.name) for k in cases for u in corpus]
    for cell in cells:
        if cell.case is mismatch:
            assert cell.error.startswith("ParamError: case family")
            continue
        certificate, error = _lone(cell.case, by_name[cell.function])
        assert cell.error == error, (cell.case, cell.function)
        assert cell.certificate == certificate, (cell.case, cell.function)
    assert sum(c.certificate is not None for c in cells) >= 5 * len(cubics)
    if family in (Family.HARDY, Family.HAD_CKN):  # the lifted row is not scored
        assert all(c.error.startswith("HypothesisError") for c in cells
                   if c.function == "lifted" and c.case in (a, a2, b))


def test_a_run_computes_each_norm_once_per_maps(monkeypatch):
    # the cases of a run share the norms of equal (map, p, g), on the fine maps
    # and, apart from them, on the coarse maps of the Richardson pass
    from fracineq import inequalities

    grid = uniform_grid(1.0, 2.0, 64)
    corpus = generate(CorpusSpec.polynomials(grid, 3, 3, 7))
    cases = [case(Family.GAGLIARDO_NIRENBERG, a=1.0, b=2.0, alpha=0.75, p=p, q=q, s=0.5)
             for p in (2.0, 4.0) for q in (2.0, 3.0)]
    spec = inequalities._SPECS[Family.GAGLIARDO_NIRENBERG]
    terms = [term for c in cases for term in spec.terms(validate_case(c))]
    calls, lp = [], inequalities.lp_trapezoid

    def counting(values, h, p, weights=None):
        calls.append((h, p))
        return lp(values, h, p, weights)

    monkeypatch.setattr(inequalities, "lp_trapezoid", counting)
    cells = sweep(Family.GAGLIARDO_NIRENBERG, cases, corpus)
    assert all(c.certificate.passed for c in cells)
    distinct = {term[:3] for term in terms}
    assert len(distinct) == 7 < len(terms) == 12
    assert len(calls) == 2 * len(distinct)
    assert {h for h, _ in calls} == {grid.h, 2 * grid.h}


@pytest.mark.parametrize("family", [Family.HARDY, Family.GAGLIARDO_NIRENBERG,
                                    Family.HAD_CKN, Family.UNCERTAINTY])
def test_scoring_leaves_the_memoized_norms_as_they_were(family):
    # a side of one norm to the power 1 is the memoized array itself, and the
    # product of uncertainty's two factors of power 1 starts from one: scoring
    # the same maps again must read the norms the first scoring computed
    from fracineq import inequalities

    the_case = validate_case(case(family, a=1.0, b=2.0, **VALID[family]))
    spec = inequalities._SPECS[family]
    grid = uniform_grid(1.0, 2.0, 128)
    u = np.array([f.samples for f in generate(CorpusSpec.polynomials(grid, 3, 5, 3))])
    m = spec.maps(the_case, grid, spec.operand(the_case, grid, u))
    first = inequalities._score(spec, the_case, m.v[:, 0], lambda: m)
    memo = {key: value.copy() for key, value in m.norms.items()}
    second = inequalities._score(spec, the_case, m.v[:, 0], lambda: m)
    assert memo and m.norms.keys() == memo.keys()
    for key, value in memo.items():
        assert np.array_equal(m.norms[key], value), key
        with np.errstate(all="ignore"):
            assert np.array_equal(spec.norm(m, inequalities._Norm(*key)), value), key
    for x, y in zip(first[:3], second[:3]):
        assert x.tobytes() == y.tobytes()
    assert first[3:] == second[3:] == ([None] * len(u), first[4])


def test_a_raising_sweep_raises_the_first_error_in_case_order():
    grid = uniform_grid(1.0, 2.0, 16)
    ramp = GridFn(grid, grid.nodes - 1.0, name="ramp")
    fine = case(Family.WEIGHTED_HARDY, a=1.0, b=2.0, alpha=0.9, p=2.0, gamma=0.0)
    # one run: the same alpha; a side, and the constant, out of float range
    big_p, big_gamma = replace(fine, p=1e300), replace(fine, gamma=1e300)

    def message(cases, corpus):
        with pytest.raises(NumericError) as raised:
            sweep(Family.WEIGHTED_HARDY, cases, corpus)
        return str(raised.value)

    def lone(the_case, u):
        with pytest.raises(NumericError) as raised:
            evaluate_sides(the_case, u)
        return str(raised.value)

    assert lone(big_p, ramp) != lone(big_gamma, ramp)
    assert message([fine, big_p, big_gamma], [ramp]) == lone(big_p, ramp)
    assert message([fine, big_gamma, big_p], [ramp]) == lone(big_gamma, ramp)
    # the second run raises
    other = replace(fine, alpha=0.75)
    assert message([other, replace(other, p=3.0), fine, big_gamma], [ramp]) == \
        lone(big_gamma, ramp)
    # a later case that raises in the first block yields to an earlier case
    # that raises only in the second
    grid32 = uniform_grid(1.0, 2.0, 32)
    big = GridFn(grid32, 1e200 * (grid32.nodes - 1.0), name="big")  # squares overflow
    hardy = case(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    huge = replace(hardy, p=1e300)
    assert lone(hardy, big) != lone(huge, ramp)
    with pytest.raises(NumericError) as raised:
        sweep(Family.HARDY, [hardy, huge], [ramp, big])
    assert str(raised.value) == lone(hardy, big)
    # a run that stops before its last block: three blocks on three grids
    grid64 = uniform_grid(1.0, 2.0, 64)
    corpus = [ramp, big, GridFn(grid64, grid64.nodes - 1.0, name="ramp64")]
    for cases, first in (([huge], lone(huge, ramp)), ([hardy, huge], lone(hardy, big)),
                         ([huge, hardy], lone(huge, ramp))):
        with pytest.raises(NumericError) as raised:
            sweep(Family.HARDY, cases, corpus)
        assert str(raised.value) == first


def test_a_raising_run_is_scored_once(monkeypatch):
    # every block of the run is scored once, fine and coarse, before the
    # run's first error is raised
    grid, grid32, grid64 = (uniform_grid(1.0, 2.0, n) for n in (16, 32, 64))
    corpus = [GridFn(grid, grid.nodes - 1.0, name="ramp"),
              GridFn(grid64, grid64.nodes - 1.0, name="ramp64"),
              GridFn(grid32, 1e200 * (grid32.nodes - 1.0), name="big")]  # squares overflow
    hardy = case(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
    with pytest.raises(NumericError) as expected:
        evaluate_sides(hardy, corpus[2])
    calls = _count_applies(monkeypatch)
    with pytest.raises(NumericError) as raised:
        sweep(Family.HARDY, [hardy, replace(hardy, p=3.0)], corpus)
    assert str(raised.value) == str(expected.value)
    assert calls == [("caputo", 0.8, n) for n in (16, 8, 64, 32, 32, 16)]


@pytest.mark.parametrize("n", [2, 4])
def test_a_run_raises_the_size_error_of_its_grid(n):
    # the operator scale h^-0.999 / Gamma(1.001) overflows on [0, 1e-320]
    grid = uniform_grid(0.0, 1e-320, n)
    lifted = GridFn(grid, 1.0 + grid.nodes, name="1+t")  # fails the boundary check
    t = GridFn(grid, grid.nodes, name="t")
    cases = [case(Family.POINCARE_SOBOLEV, a=0.0, b=1e-320, alpha=0.999, p=p)
             for p in (2.0, 3.0)]
    with pytest.raises(SizeError) as expected:
        evaluate_sides(cases[0], t)
    with pytest.raises(SizeError) as raised:
        sweep(Family.POINCARE_SOBOLEV, cases, [lifted, t])
    assert str(raised.value) == str(expected.value)
    # with no row scored, no operator is built
    cells = sweep(Family.POINCARE_SOBOLEV, cases, [lifted])
    assert [c.error.split(":")[0] for c in cells] == ["HypothesisError"] * len(cases)


def test_a_constant_error_precedes_the_size_error_of_the_maps():
    # on [1e-320, 2e-320] the weighted-hardy constant at gamma = 2000 overflows
    # ((b/a)^2000 does), and so does the operator scale h^-0.999 / Gamma(1.001):
    # a case scores its constant before it builds the maps of the run
    grid = uniform_grid(1e-320, 2e-320, 2)
    ramp = GridFn(grid, grid.nodes - grid.a, name="t-a")
    cases = [case(Family.WEIGHTED_HARDY, a=grid.a, b=grid.b, alpha=0.999, p=2.0, gamma=g)
             for g in (2000.0, 0.0)]
    with pytest.raises(NumericError) as raised:
        sweep(Family.WEIGHTED_HARDY, cases, [ramp])
    assert str(raised.value) == ("weighted-hardy: constant is not a positive finite "
                                 "number (inf)")


@pytest.mark.parametrize("family", [Family.GAGLIARDO_NIRENBERG, Family.HAD_GAGLIARDO_NIRENBERG])
def test_block_powers_are_the_scalar_powers(family):
    # a side raised to a power takes the power of each row as a lone float:
    # np.power on an array rounds differently in a few percent of the values
    from fracineq import hadamard_derivative

    grid = uniform_grid(1.0, 2.0, 128)
    corpus = generate(CorpusSpec.polynomials(grid, 3, 60, 11))
    derivative = hadamard_derivative if family is Family.HAD_GAGLIARDO_NIRENBERG \
        else caputo_derivative
    for s in (0.25, 0.5):
        the_case = case(family, a=1.0, b=2.0, alpha=0.9, p=2.0, q=2.0, s=s)
        for cell, u in zip(sweep(family, [the_case], corpus), corpus):
            dnorm = norm(derivative(u, 0.9), NormKind.lp(2.0))
            product = dnorm**s * norm(u, NormKind.lp(2.0)) ** (1.0 - s)
            assert cell.certificate.rhs_norm_product == product, (s, u.name)
