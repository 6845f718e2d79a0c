"""Acceptance suite.

One test per acceptance criterion; each prints a single
``criterion N: PASS/FAIL`` line (visible with ``pytest -s``) and asserts the
criterion at its stated tolerance.
"""

import hashlib
import io
import json
import math
import time
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from fracineq import (
    BasisSides,
    CorpusSpec,
    DiffusionProblem,
    Family,
    GridFn,
    InequalityCase,
    ParamError,
    caputo_derivative,
    check_apriori,
    decay_rate,
    gamma_fn,
    generate,
    hadamard_derivative,
    hadamard_integral,
    hadamard_integral_direct,
    mass_diagonal,
    reference_integral,
    reflect,
    right_rl_derivative,
    rl_derivative,
    rl_integral,
    run,
    sequential_caputo,
    sharpness_search,
    sweep,
    to_log_grid,
    uniform_grid,
    validate_case,
)
from fracineq.cli import main as cli_main
from fracineq.report import certificate_row, emit_payload_json, sweep_rows
from conftest import order_fit

FIXTURES = Path(__file__).parent / "fixtures"


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def power_fn(a, b, n, mu):
    g = uniform_grid(a, b, n)
    return GridFn(g, (g.nodes - a) ** mu)


def log_power_fn(a, b, n, mu):
    g = uniform_grid(a, b, n)
    return GridFn(g, np.log(g.nodes / a) ** mu)


# -- criterion 1: operator oracle agreement at n = 4096 -----------------------

def test_criterion_1_operator_oracle_agreement():
    n = 4096
    worst = {}
    timings = {}

    def rel_sup(got, expect):
        return float(np.max(np.abs(got - expect)) / np.max(np.abs(expect)))

    # the Gamma-ratio closed forms themselves are certified against the
    # independent quadrature oracle once per operator family
    t0 = time.perf_counter()
    errs = []
    for mu, alpha in ((1.0, 0.3), (1.0, 0.5), (1.0, 0.75), (2.0, 0.5),
                      (2.0, 0.75), (3.0, 0.3)):
        u = power_fn(0.0, 1.0, n, mu)
        nodes = u.grid.nodes
        expect = gamma_fn(mu + 1) / gamma_fn(mu + 1 + alpha) * nodes ** (mu + alpha)
        errs.append(rel_sup(rl_integral(u, alpha).samples, expect))
    oracle = reference_integral(lambda s: s**2.0, 0.0, 1.0, 0.5) / gamma_fn(0.5)
    assert abs(oracle - gamma_fn(3.0) / gamma_fn(3.5)) < 1e-9
    worst["rl-integral"] = max(errs)
    timings["rl-integral"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    errs = []
    for mu, alpha in ((1.0, 0.25), (1.0, 0.5), (1.0, 0.75), (2.0, 0.25),
                      (2.0, 0.3)):
        u = power_fn(0.0, 1.0, n, mu)
        nodes = u.grid.nodes
        expect = gamma_fn(mu + 1) / gamma_fn(mu + 1 - alpha) * nodes ** (mu - alpha)
        errs.append(rel_sup(caputo_derivative(u, alpha).samples, expect))
    oracle = reference_integral(lambda s: 2.0 * s, 0.0, 1.0, 0.75) / gamma_fn(0.75)
    assert abs(oracle - gamma_fn(3.0) / gamma_fn(2.75)) < 1e-9
    worst["caputo"] = max(errs)
    timings["caputo"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    errs = []
    for alpha in (0.25, 0.5, 0.75):
        g = uniform_grid(0.0, 1.0, n)
        u = GridFn(g, np.ones(n + 1))
        expect = g.nodes[1:] ** (-alpha) / gamma_fn(1.0 - alpha)
        errs.append(float(np.max(np.abs(rl_derivative(u, alpha).samples[1:] - expect)
                                 / np.abs(expect))))
    u = power_fn(0.0, 1.0, n, 2.0)
    expect = gamma_fn(3.0) / gamma_fn(2.75) * u.grid.nodes ** 1.75
    errs.append(rel_sup(rl_derivative(u, 0.25).samples, expect))
    worst["rl-derivative"] = max(errs)
    timings["rl-derivative"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    errs = []
    g = uniform_grid(0.0, 1.0, n)
    for mu, alpha in ((1.0, 0.5), (2.0, 0.25)):
        u = GridFn(g, (g.b - g.nodes) ** mu)
        expect = gamma_fn(mu + 1) / gamma_fn(mu + 1 - alpha) * \
            (g.b - g.nodes) ** (mu - alpha)
        got = right_rl_derivative(u, alpha).samples
        errs.append(float(np.max(np.abs(got[:-1] - expect[:-1]))
                          / np.max(np.abs(expect[:-1]))))
    ones = GridFn(g, np.ones(n + 1))
    expect = (g.b - g.nodes[:-1]) ** (-0.5) / gamma_fn(0.5)
    got = right_rl_derivative(ones, 0.5).samples[:-1]
    errs.append(float(np.max(np.abs(got - expect) / np.abs(expect))))
    worst["right-rl-derivative"] = max(errs)
    timings["right-rl-derivative"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    errs = []
    for mu, alpha in ((1.0, 0.3), (1.0, 0.5), (1.0, 0.75), (2.0, 0.5),
                      (2.0, 0.75)):
        u = log_power_fn(1.0, math.e, n, mu)
        out = hadamard_integral(u, alpha)
        sig = out.grid.nodes
        expect = gamma_fn(mu + 1) / gamma_fn(mu + 1 + alpha) * sig ** (mu + alpha)
        errs.append(rel_sup(out.samples[1:], expect[1:]))
    oracle = reference_integral(lambda s: s, 0.0, 1.0, 0.5) / gamma_fn(0.5)
    assert abs(oracle - gamma_fn(2.0) / gamma_fn(2.5)) < 1e-9
    worst["hadamard-integral"] = max(errs)
    timings["hadamard-integral"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    errs = []
    for mu, alpha in ((1.0, 0.25), (2.0, 0.25), (2.0, 0.3)):
        u = log_power_fn(1.0, math.e, n, mu)
        out = hadamard_derivative(u, alpha)
        sig = out.grid.nodes
        expect = gamma_fn(mu + 1) / gamma_fn(mu + 1 - alpha) * sig ** (mu - alpha)
        errs.append(rel_sup(out.samples[1:], expect[1:]))
    worst["hadamard-derivative"] = max(errs)
    timings["hadamard-derivative"] = time.perf_counter() - t0

    ok = all(err <= 1e-6 for err in worst.values()) and \
        all(dt < 10.0 for dt in timings.values())
    detail = ", ".join(f"{kind} err {err:.2e} ({timings[kind]:.1f}s)"
                       for kind, err in worst.items())
    report(1, ok, detail)


# -- criterion 2: L1 convergence order ----------------------------------------

def test_criterion_2_convergence_order():
    ns = (256, 512, 1024, 2048)
    measured = {}
    for alpha in (0.3, 0.5, 0.75):
        errs = []
        for n in ns:
            u = power_fn(0.0, 1.0, n, 2.0)
            expect = 2.0 / gamma_fn(3.0 - alpha) * u.grid.nodes ** (2.0 - alpha)
            errs.append(np.max(np.abs(caputo_derivative(u, alpha).samples - expect)))
        measured[alpha] = order_fit(ns, errs)
    ok = all(abs(order - (2.0 - alpha)) <= 0.15
             for alpha, order in measured.items())
    detail = ", ".join(f"alpha={a}: order {o:.3f} (expect {2 - a})"
                       for a, o in measured.items())
    report(2, ok, detail)


# -- criterion 3: structural identities ----------------------------------------

def test_criterion_3_structural_identities():
    ns = (128, 256, 512, 1024)
    orders = {}

    def defect_order(make_defect):
        errs = [make_defect(n) for n in ns]
        return order_fit(ns, errs), errs[-1]

    for alpha, beta in ((0.3, 0.4), (0.25, 0.5), (0.5, 0.5), (0.7, 0.3)):
        orders[f"semigroup({alpha},{beta})"], _ = defect_order(
            lambda n, a=alpha, b=beta: float(np.max(np.abs(
                rl_integral(rl_integral(power_fn(0, 1, n, 1.0) , b), a).samples
                - rl_integral(power_fn(0, 1, n, 1.0), a + b).samples))))

    for alpha in (0.3, 0.6, 0.9):
        def fund(n, a=alpha):
            g = uniform_grid(0.0, 1.0, n)
            u = GridFn(g, np.cos(g.nodes))
            rec = rl_integral(caputo_derivative(u, a), a)
            return float(np.max(np.abs(rec.samples - (u.samples - u.samples[0]))))
        orders[f"fundamental({alpha})"], _ = defect_order(fund)

    # Caputo equals Riemann-Liouville bit-exactly on vanishing data
    bits_ok = True
    for alpha in (0.25, 0.6, 1.0):
        u = power_fn(0.0, 1.0, 512, 1.0)
        bits_ok &= bool(np.array_equal(caputo_derivative(u, alpha).samples,
                                       rl_derivative(u, alpha).samples))

    for alpha, beta in ((0.4, 0.3), (0.6, 0.3)):
        orders[f"had-semigroup({alpha},{beta})"], _ = defect_order(
            lambda n, a=alpha, b=beta: float(np.max(np.abs(
                rl_integral(hadamard_integral(log_power_fn(1, 3, n, 1.0), b), a).samples
                - hadamard_integral(log_power_fn(1, 3, n, 1.0), a + b).samples))))

    for alpha in (0.4, 0.7):
        def had_fund(n, a=alpha):
            g = uniform_grid(1.0, 3.0, n)
            u = GridFn(g, np.cos(np.log(g.nodes)) + 0.5)
            rec = rl_integral(hadamard_derivative(u, a), a)
            ut = to_log_grid(u)
            return float(np.max(np.abs(rec.samples - (ut.samples - ut.samples[0]))))
        orders[f"had-fundamental({alpha})"], _ = defect_order(had_fund)

    ok = bits_ok and all(order >= 1.0 for order in orders.values())
    detail = (f"caputo=rl bit-exact: {bits_ok}; min order "
              f"{min(orders.values()):.2f} over {len(orders)} identities")
    report(3, ok, detail)


# -- criterion 4: soundness sweep ----------------------------------------------

def _lattices(a: float, b: float) -> dict[Family, list[InequalityCase]]:
    def cases(family, combos):
        return [validate_case(InequalityCase(family=family, a=a, b=b, **kw))
                for kw in combos]

    sup_combos = [dict(alpha=al, p=p)
                  for al in (0.6, 0.75, 0.9) for p in (2.0, 3.0, 4.0, 6.0)]
    wh_combos = [dict(alpha=al, p=p, gamma=g)
                 for al in (0.75, 0.9) for p in (2.0, 3.0)
                 for g in (-1.5, 0.0, 2.0)]
    gn_combos = [dict(alpha=al, p=p, q=q, s=s)
                 for al in (0.75, 0.9) for p in (2.0, 4.0)
                 for q in (2.0, 3.0) for s in (0.5,)] + \
                [dict(alpha=0.9, p=2.0, q=2.0, s=s) for s in (0.0, 0.25, 0.8, 1.0)]
    ckn_combos = [dict(alpha=0.9, p=p, q=q, delta=0.5, d=d, e=0.3)
                  for p in (2.0, 3.0) for q in (2.0, 3.0) for d in (0.8, 1.2)] + \
                 [dict(alpha=0.9, p=2.0, q=2.0, delta=dl, d=d, e=0.3)
                  for dl in (0.0, 1.0) for d in (0.8, 1.2)]
    seq_combos = [dict(alpha=al, beta=be, p=p)
                  for al in (0.8, 0.9) for be in (0.3, 0.6)
                  for p in (2.0, 3.0, 4.0)]
    seq_gn_combos = [dict(alpha=al, beta=be, p=p, q=q, s=0.5)
                     for al in (0.4, 0.7) for be in (0.75, 0.9)
                     for p in (2.0, 3.0) for q in (2.0,)] + \
                    [dict(alpha=0.5, beta=0.8, p=2.0, q=3.0, s=s)
                     for s in (0.25, 0.5, 0.75, 1.0)]
    return {
        Family.POINCARE_SOBOLEV: cases(Family.POINCARE_SOBOLEV, sup_combos),
        Family.POINCARE_SOBOLEV_LQ: cases(
            Family.POINCARE_SOBOLEV_LQ,
            [dict(alpha=al, p=p, theta=th) for al in (0.6, 0.75, 0.9)
             for p in (2.0, 3.0) for th in (1.5, 3.0)]),
        Family.SOBOLEV_BETA: cases(
            Family.SOBOLEV_BETA,
            [dict(alpha=al, beta=be, p=p) for al in (0.85, 0.9, 0.95)
             for be in (0.0, 0.1) for p in (4.0, 6.0)]),
        Family.HARDY: cases(Family.HARDY, sup_combos),
        Family.WEIGHTED_HARDY: cases(Family.WEIGHTED_HARDY, wh_combos),
        Family.GAGLIARDO_NIRENBERG: cases(Family.GAGLIARDO_NIRENBERG, gn_combos),
        Family.CKN: cases(Family.CKN, ckn_combos),
        Family.SEQ_POINCARE_SOBOLEV: cases(Family.SEQ_POINCARE_SOBOLEV, seq_combos),
        Family.SEQ_HARDY: cases(Family.SEQ_HARDY, seq_combos),
        Family.SEQ_GAGLIARDO_NIRENBERG: cases(Family.SEQ_GAGLIARDO_NIRENBERG,
                                              seq_gn_combos),
        Family.HAD_POINCARE_SOBOLEV: cases(Family.HAD_POINCARE_SOBOLEV, sup_combos),
        Family.HAD_HARDY: cases(Family.HAD_HARDY, sup_combos),
        Family.HAD_WEIGHTED_HARDY: cases(Family.HAD_WEIGHTED_HARDY, wh_combos),
        Family.HAD_GAGLIARDO_NIRENBERG: cases(Family.HAD_GAGLIARDO_NIRENBERG,
                                              gn_combos),
        Family.HAD_CKN: cases(Family.HAD_CKN, ckn_combos),
        Family.UNCERTAINTY: cases(Family.UNCERTAINTY, sup_combos),
        Family.HAD_UNCERTAINTY: cases(Family.HAD_UNCERTAINTY, sup_combos),
    }


def test_criterion_4_soundness_sweep():
    t0 = time.perf_counter()
    grid = uniform_grid(1.0, 2.0, 1024)
    corpus = generate(CorpusSpec.polynomials(grid, degree=3, count=100, seed=2024))
    lattices = _lattices(1.0, 2.0)
    assert set(lattices) == set(Family)
    total = passed = 0
    failures = []
    for family, cases in lattices.items():
        assert len(cases) >= 12, family
        for cell in sweep(family, cases, corpus):
            total += 1
            if cell.certificate is not None and cell.certificate.passed:
                passed += 1
            else:
                failures.append((family.value, cell.function,
                                 cell.error or cell.certificate.ratio))
    elapsed = time.perf_counter() - t0
    ok = passed == total and elapsed < 300.0
    detail = (f"{passed}/{total} certificates pass over {len(lattices)} families "
              f"in {elapsed:.1f}s" + (f"; first failures {failures[:3]}"
                                      if failures else ""))
    report(4, ok, detail)


@pytest.mark.parametrize("n", [384, 129])
def test_lattice_sweep_payloads_match_pinned_hashes(n):
    # the sweep report of every family over the lattice, byte for byte: n = 384
    # applies by FFT, odd n = 129 scores interpolated coarse copies
    pin = json.loads((FIXTURES / "sweep_lattice_sha256.json").read_text())
    grid = uniform_grid(pin["a"], pin["b"], n)
    spec = pin["corpus"]
    corpus = generate(CorpusSpec.polynomials(grid, spec["degree"], spec["count"], spec["seed"]))
    hashes = {}
    for family, cases in _lattices(pin["a"], pin["b"]).items():
        payload = emit_payload_json(sweep_rows(sweep(family, cases, corpus)),
                                    f"fracineq verify --family {family.value}")
        hashes[family.value] = hashlib.sha256(payload.encode()).hexdigest()
    assert hashes == pin["sha256"][str(n)]


def _sharpness_hashes(n: int, budget: int) -> dict[str, str]:
    # the sha256 of the sharpness report of the first lattice case of every
    # family, and of criterion 5: the certificate row and the coefficients
    cases = {family.value: cases[0] for family, cases in _lattices(1.0, 2.0).items()}
    cases["criterion-5"] = InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0,
                                          alpha=1.0, p=2.0)
    hashes = {}
    for name, case in cases.items():
        result = sharpness_search(case, budget=budget, grid_n=n)
        payload = emit_payload_json([{"best": certificate_row(result.certificate),
                                      "coefficients": list(result.coefficients)}],
                                    f"fracineq sharpness --family {case.family.value}")
        hashes[name] = hashlib.sha256(payload.encode()).hexdigest()
    return hashes


@pytest.mark.parametrize("n", [64, 129])
def test_sharpness_payloads_match_pinned_hashes(n):
    # every search path byte for byte: the direct solve, Boyd's iteration, the
    # Newton power steps of an L^4 norm (sobolev-beta) and the minorize-maximize
    # loop; odd n = 129 scores interpolated coarse copies
    pin = json.loads((FIXTURES / "sharpness_sha256.json").read_text())
    assert _sharpness_hashes(n, pin["budget"]) == pin["sha256"][str(n)]


def test_every_lattice_case_with_a_varying_ratio_has_a_quotient():
    # the norm table gives every lattice case a quotient, but for ckn at delta = 0
    # and gagliardo-nirenberg at s = 0: there the one factor of nonzero power is
    # the left norm and cancels, the ratio is constant, and the search keeps the
    # initial iterate
    grid = uniform_grid(1.0, 2.0, 16)
    basis = [GridFn(grid, (grid.nodes - 1.0) ** (k + 1)) for k in range(2)]
    for family, cases in _lattices(1.0, 2.0).items():
        for case in cases:
            constant_ratio = (family.value.endswith("ckn") and case.delta == 0.0
                              or family.value.endswith("nirenberg") and case.s == 0.0)
            assert (BasisSides(case, basis).quotient() is None) == constant_ratio, case
            if constant_ratio:
                result = sharpness_search(case, budget=1000, grid_n=16)
                assert np.array_equal(result.coefficients, np.eye(5)[0])


# -- criterion 5: sharpness probe -----------------------------------------------

def test_criterion_5_sharpness_probe():
    case = InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=1.0, p=2.0)
    result = sharpness_search(case, budget=500, seed=0)
    cert = result.certificate
    ok = 0.999 <= cert.ratio <= 1.0 + cert.disc_tol
    report(5, ok, f"best ratio {cert.ratio:.12f}, disc_tol {cert.disc_tol:.2e}")


# -- criterion 6: parameter validation table -------------------------------------

def test_criterion_6_rejection_table():
    table = [
        # alpha <= 1/p
        (InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=0.4, p=2.0),
         r"alpha in \(1/p, 1\]"),
        # a <= 0 for Hardy-type families
        (InequalityCase(Family.HARDY, a=0.0, b=1.0, alpha=0.9, p=2.0), "a > 0"),
        (InequalityCase(Family.HAD_POINCARE_SOBOLEV, a=-1.0, b=1.0, alpha=0.9,
                        p=2.0), "a > 0"),
        (InequalityCase(Family.CKN, a=0.0, b=1.0, alpha=0.75, p=2.0, q=2.0,
                        delta=0.5, d=1.0, e=0.0), "a > 0"),
        # CKN exponent relation, delta window, weight positivity
        (InequalityCase(Family.CKN, a=1.0, b=2.0, alpha=0.75, p=2.0, q=2.0,
                        r=2.1, delta=0.5, d=1.0, e=0.0),
         r"1/r = delta/p \+ \(1-delta\)/q"),
        (InequalityCase(Family.CKN, a=1.0, b=2.0, alpha=0.9, p=4.0, q=2.0,
                        r=5.0, delta=0.3, d=1.0, e=0.0),
         r"delta in \[\(r-q\)/r, p/r\]"),
        (InequalityCase(Family.CKN, a=1.0, b=2.0, alpha=0.9, p=3.0, q=3.0,
                        delta=0.5, d=0.5, e=0.0), r"1 \+ \(d-1\)\*p > 0"),
        # GN exponent relation
        (InequalityCase(Family.GAGLIARDO_NIRENBERG, a=0.0, b=1.0, alpha=0.9,
                        p=2.0, q=2.0, s=0.5, gamma=3.0),
         r"gamma\*s/q \+ gamma\*\(1-s\)/p = 1"),
    ]
    for case, pattern in table:
        with pytest.raises(ParamError, match=pattern):
            validate_case(case)
    report(6, True, f"{len(table)} rejection clauses raise the named error")


# -- criterion 7: diffusion a-priori estimate ------------------------------------

def test_criterion_7_diffusion_apriori():
    n, dt, T = 256, 1e-3, 1.0
    grid = uniform_grid(0.0, 1.0, n)
    u0 = GridFn(grid, grid.nodes.copy())
    details = []
    ok = True
    traces = {}
    for alpha in (0.6, 0.75, 1.0):
        trace = run(DiffusionProblem(grid, alpha, u0, T=T, dt=dt))
        traces[alpha] = trace
        rep = check_apriori(trace, rel_slack=1e-12, tol_exp=0.05)
        ok &= rep.monotone_ok and rep.exp_bound_ok
        assert trace.lam == pytest.approx(decay_rate(grid, alpha), rel=1e-14)
        details.append(f"alpha={alpha}: monotone={rep.monotone_ok}, "
                       f"bound excess {rep.max_exp_excess:.2e}")

    # alpha = 1 trace vs an independently assembled classical heat solve
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
    mass = mass_diagonal(grid)
    u = u0.samples[1:].copy()
    factor = scipy.linalg.cho_factor(np.diag(mass) + dt * k_classic)
    ref = [float(u @ (mass * u))]
    for _ in range(len(traces[1.0].energy) - 1):
        u = scipy.linalg.cho_solve(factor, mass * u)
        ref.append(float(u @ (mass * u)))
    ref = np.array(ref)
    classic_err = float(np.max(np.abs(traces[1.0].energy - ref)) / ref[0])
    ok &= classic_err <= 1e-10
    details.append(f"alpha=1 classical match {classic_err:.2e}")
    report(7, ok, "; ".join(details))


# -- criterion 8: hadamard substitution equivalence -------------------------------

def test_criterion_8_hadamard_substitution_equivalence():
    n = 2048
    worst = 0.0
    for f in (lambda t: np.log(t) ** 2, np.sin, lambda t: t * np.cos(t)):
        g = uniform_grid(1.0, math.e, n)
        u = GridFn(g, f(g.nodes))
        for alpha in (0.4, 0.75):
            sub = hadamard_integral(u, alpha).samples
            direct = hadamard_integral_direct(u, alpha).samples
            worst = max(worst, float(np.max(np.abs(sub - direct))))
    ok = worst <= 1e-8
    report(8, ok, f"max |substitution - direct| = {worst:.2e} at n={n}")


# -- criterion 9: CLI contract -----------------------------------------------------

def test_criterion_9_cli_contract():
    def run_cli(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    checks = []

    verify_argv = ["verify", "--family", "hardy", "--alpha", "1", "--p", "2",
                   "--a", "1", "--b", "2", "--n", "256",
                   "--corpus", "poly:3,3,7", "--out", "json", "--no-timestamp"]
    code_a, out_a = run_cli(verify_argv)
    code_b, out_b = run_cli(verify_argv)
    checks.append(("byte-identical repeat", code_a == code_b == 0 and out_a == out_b))
    checks.append(("json fixture", out_a == (FIXTURES / "verify_hardy.json").read_text()))
    json.loads(out_a)

    code, out = run_cli(["diffuse", "--alpha", "1.0", "--a", "0", "--b", "1",
                         "--n", "32", "--T", "0.01", "--dt", "0.002",
                         "--no-timestamp"])
    checks.append(("csv fixture", code == 0 and
                   out == (FIXTURES / "diffuse_alpha1.csv").read_text()))

    code, _ = run_cli(["verify", "--family", "unknownfam", "--a", "0", "--b", "1",
                       "--corpus", "powers:1"])
    checks.append(("exit 2 usage", code == 2))
    code, _ = run_cli(["verify", "--family", "hardy", "--alpha", "1", "--p", "2",
                       "--a", "0", "--b", "1", "--n", "64",
                       "--corpus", "poly:3,3,7"])
    checks.append(("exit 3 param", code == 3))
    code, _ = run_cli(["verify", "--family", "poincare-sobolev", "--alpha", "0.9",
                       "--p", "2", "--a", "0", "--b", "1", "--n", "64",
                       "--corpus", "expr:t + 1", "--no-timestamp"])
    checks.append(("exit 1 failure", code == 1))
    code, _ = run_cli(verify_argv)
    checks.append(("exit 0 all-pass", code == 0))

    ok = all(flag for _, flag in checks)
    report(9, ok, ", ".join(f"{name}: {'ok' if flag else 'BAD'}"
                            for name, flag in checks))
