"""Bounded fuzz test of the command line: every argv ends in a contract exit code.

Argvs for all five subcommands are drawn from a pool of awkward numbers (0,
negatives, +-1e300, 1e308, nan, inf) and arbitrary integers.  The work stays small:
grids have at most 64 subintervals unless they exceed MAX_N, which is refused
before anything is allocated; budgets are at most 5, poly counts at most 3 and
diffusion runs at most 100 steps unless T/dt exceeds MAX_STEPS.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracineq.cli import main
from fracineq.diffusion import MAX_STEPS
from fracineq.grids import MAX_N
from fracineq.inequalities import Family, InequalityCase
from fracineq.operators import OPERATOR_KINDS

NUMBERS = st.sampled_from(["0", "-1", "0.5", "0.75", "0.9", "1", "1.5", "2", "3", "1e-300",
                           "1e300", "-1e300", "1e308", "nan", "inf", "-inf"])
EXPRESSIONS = st.sampled_from(["t", "t - 1", "(t - 1)^2", "sin(t)", "t^0.5", "1/t", "log(t)",
                               "sqrt(t - 1)", "exp(1000*t)", "0*exp(1000*t)", "t^-1", "t^200",
                               "(t"])
CASE_FLAGS = ["alpha", "beta", "p", "q", "r", "s", "delta", "gamma-w", "c", "d", "e", "theta"]
assert len(CASE_FLAGS) == len(InequalityCase.__dataclass_fields__) - 3

#: a valid case of each family: its interval and its flags
VALID = {
    "poincare-sobolev": ("0 1", "alpha 0.75 p 2"),
    "poincare-sobolev-lq": ("0 1", "alpha 0.75 p 2 theta 1.5"),
    "sobolev-beta": ("0 1", "alpha 0.9 beta 0 p 3"),
    "hardy": ("1 2", "alpha 0.9 p 2"),
    "weighted-hardy": ("1 2", "alpha 0.9 p 2 gamma-w -1.5"),
    "gagliardo-nirenberg": ("0 1", "alpha 0.9 p 2 q 2 s 0.5"),
    "ckn": ("1 2", "alpha 0.9 p 2 q 2 delta 0.5 d 1.5 e 0.5"),
    "seq-poincare-sobolev": ("0 1", "alpha 0.9 beta 0.5 p 2"),
    "seq-hardy": ("1 2", "alpha 0.9 beta 0.5 p 3"),
    "seq-gagliardo-nirenberg": ("0 1", "alpha 0.5 beta 0.75 p 2 q 2 s 0.5"),
    "hadamard-poincare-sobolev": ("1 3", "alpha 0.75 p 2"),
    "hadamard-hardy": ("1 2", "alpha 0.9 p 2"),
    "hadamard-weighted-hardy": ("1 2", "alpha 0.9 p 2 gamma-w 2"),
    "hadamard-gagliardo-nirenberg": ("1 3", "alpha 0.9 p 2 q 3 s 0.5"),
    "hadamard-ckn": ("1 2", "alpha 0.9 p 2 q 2 delta 1 d 1.5 e 0.5"),
    "uncertainty": ("1 2", "alpha 0.9 p 2"),
    "hadamard-uncertainty": ("1 2", "alpha 0.9 p 2"),
}
assert sorted(VALID) == sorted(f.value for f in Family)


def flag(name, value) -> str:
    # the = form keeps argparse from reading "-1e300" as an option
    return f"--{name}={value}"


@st.composite
def mostly(draw, valid, awkward=NUMBERS):
    """``valid`` (a value or a strategy) nine times in ten, else an awkward value."""
    if draw(st.integers(0, 9)) == 0:
        return draw(awkward)
    return draw(valid) if isinstance(valid, st.SearchStrategy) else valid


SIZES = mostly(st.integers(2, 64), st.one_of(st.integers(-2, 1), st.integers(MAX_N + 1, 2**70)))


@st.composite
def interval(draw, a="1", b="2", with_n=True) -> list[str]:
    a, b = draw(mostly((a, b), st.tuples(st.just(a) | NUMBERS, st.just(b) | NUMBERS)))
    argv = [flag("a", a), flag("b", b)]
    if with_n:
        argv.append(flag("n", draw(SIZES)))
    return argv


@st.composite
def case_argv(draw) -> list[str]:
    """A family, its interval and its case flags, each mostly valid; perhaps one extra flag."""
    family = draw(st.sampled_from(sorted(VALID)))
    ends, flags = VALID[family]
    pairs = flags.split()
    argv = [flag("family", family)] + draw(interval(*ends.split()))
    for name, value in zip(pairs[::2], pairs[1::2]):
        if draw(st.integers(0, 19)):  # one flag in twenty is left out
            argv.append(flag(name, draw(mostly(value))))
    if draw(st.integers(0, 9)) == 0:
        argv.append(flag(draw(st.sampled_from(CASE_FLAGS)), draw(NUMBERS)))
    return argv


@st.composite
def verify_argv(draw) -> list[str]:
    corpus = draw(st.one_of(
        st.builds("powers:{}".format, mostly("1.5")),
        st.builds("poly:{},{},{}".format, mostly(st.integers(0, 5), st.integers()),
                  st.integers(-1, 3), mostly(st.integers(0, 9), st.integers())),
        st.builds("expr:{}".format, EXPRESSIONS)))
    argv = ["verify"] + draw(case_argv()) + [flag("corpus", corpus)]
    if draw(st.booleans()):
        argv.append(flag("tol", draw(NUMBERS)))
    return argv


@st.composite
def op_argv(draw) -> list[str]:
    return (["op", flag("operator", draw(st.sampled_from(OPERATOR_KINDS))),
             flag("alpha", draw(mostly("0.5"))), flag("expr", draw(EXPRESSIONS))]
            + draw(interval()) + [flag("out", draw(st.sampled_from(["json", "csv"])))])


@st.composite
def sharpness_argv(draw) -> list[str]:
    return (["sharpness"] + draw(case_argv())
            + [flag("budget", draw(st.integers(-1, 5))),
               flag("seed", draw(mostly(st.integers(0, 9), st.integers()))),
               flag("degree", draw(mostly(st.integers(0, 6), st.integers())))])


@st.composite
def converge_argv(draw) -> list[str]:
    ladder = ",".join(str(n) for n in draw(mostly(st.lists(st.integers(2, 64), min_size=2,
                                                           max_size=3),
                                                  st.lists(SIZES, max_size=3))))
    return (["converge", flag("operator", draw(st.sampled_from(OPERATOR_KINDS))),
             flag("alpha", draw(mostly("0.5"))), flag("expr", draw(EXPRESSIONS))]
            + draw(interval(with_n=False)) + [flag("n", ladder)])


@st.composite
def diffuse_argv(draw) -> list[str]:
    t_text, dt_text = draw(mostly("1")), draw(mostly("0.25"))
    T, dt = float(t_text), float(dt_text)
    steps = T / dt if dt > 0.0 else 0.0  # dt <= 0 and nan are refused
    assume(not 100.0 < steps <= MAX_STEPS)
    argv = (["diffuse", flag("alpha", draw(mostly("0.75"))), *draw(interval("0", "1")),
             flag("T", t_text), flag("dt", dt_text)])
    if draw(st.booleans()):
        argv.append(flag("u0", draw(mostly(st.sampled_from(["t*(1-t)", "t^2"]), EXPRESSIONS))))
    return argv


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.one_of(verify_argv(), op_argv(), sharpness_argv(), converge_argv(), diffuse_argv()))
def test_cli_fuzz_exit_code_is_in_the_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + ["--no-timestamp"])
    assert code in (0, 1, 2, 3, 4), argv
    assert "Traceback" not in err.getvalue(), argv
