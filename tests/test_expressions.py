import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracineq import EvalError, ParseError, eval_expr, parse_expr, pretty
from fracineq.expressions import MAX_DEPTH, BinOp, Call, Neg, Num, Var


def test_parse_examples():
    assert parse_expr("t^2 - t") == BinOp("-", BinOp("^", Var(), Num(2.0)), Var())
    assert parse_expr("sin(pi*t)") == Call("sin", BinOp("*", Num(math.pi), Var()))


def test_parse_error_carries_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("t +")
    assert err.value.offset == 3


def test_parse_rejects_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expr("x + 1")


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_expr("t t")


# each shape at depth k, the offset of the token refused at depth MAX_DEPTH + 1,
# and the value at t = 0.5
DEEP_SHAPES = {
    "parens": (lambda k: "(" * k + "t" + ")" * k, MAX_DEPTH, 0.5),
    "minus": (lambda k: "-" * k + "t", MAX_DEPTH, 0.5),
    "power": (lambda k: "t^" * k + "t", 2 * MAX_DEPTH + 1, None),
    "calls": (lambda k: "abs(" * k + "t" + ")" * k, 4 * MAX_DEPTH, 0.5),
    "sum": (lambda k: "+".join(["t"] * (k + 1)), 2 * MAX_DEPTH + 1, 0.5 * (MAX_DEPTH + 1)),
    "call-then-sum": (lambda k: "abs(" * (k - 1) + "t" + ")" * (k - 1) + "+t",
                      5 * MAX_DEPTH + 1, 1.0),
    "group-then-power": (lambda k: "(" * (k - 1) + "t" + ")" * (k - 1) + "^t",
                         2 * MAX_DEPTH + 1, None),
}


@pytest.mark.parametrize("shape", sorted(DEEP_SHAPES))
def test_nesting_depth_limit(shape):
    text_at, offset, value = DEEP_SHAPES[shape]
    ast = parse_expr(text_at(MAX_DEPTH))
    result = eval_expr(ast, 0.5)
    assert np.isfinite(result) and (value is None or result == value)
    assert parse_expr(pretty(ast)) == ast
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels") as err:
        parse_expr(text_at(MAX_DEPTH + 1))
    assert err.value.offset == offset
    # refused before Python's recursion limit, not by it
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_expr(text_at(3000))


def test_whitespace_insensitive():
    assert parse_expr(" t ^ 2-t ") == parse_expr("t^2 - t")


def test_eval_examples():
    assert eval_expr(parse_expr("t^2 - t"), 2.0) == 2.0
    assert eval_expr(parse_expr("log(t)"), 1.0) == 0.0
    with pytest.raises(EvalError):
        eval_expr(parse_expr("sqrt(t - 2)"), 1.0)


def test_eval_domain_errors():
    with pytest.raises(EvalError):
        eval_expr(parse_expr("log(t)"), 0.0)
    with pytest.raises(EvalError):
        eval_expr(parse_expr("1 / t"), 0.0)
    with pytest.raises(EvalError):
        eval_expr(parse_expr("(-1)^t"), 0.5)


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than * and /
    assert eval_expr(parse_expr("-t^2"), 3.0) == -9.0
    assert eval_expr(parse_expr("2^3^2"), 0.0) == 512.0  # right-associative
    assert eval_expr(parse_expr("6/3/2"), 0.0) == 1.0
    assert eval_expr(parse_expr("1 - 2 - 3"), 0.0) == -4.0
    assert eval_expr(parse_expr("2*-3"), 0.0) == -6.0
    assert eval_expr(parse_expr("t^-1"), 4.0) == 0.25


def test_eval_vectorized_matches_scalar():
    ast = parse_expr("sin(pi*t) + t^2")
    ts = np.linspace(0.1, 0.9, 7)
    vec = eval_expr(ast, ts)
    assert vec.shape == ts.shape
    for t, v in zip(ts, vec):
        assert eval_expr(ast, float(t)) == pytest.approx(v, rel=1e-15)


FIXED_FUZZ = [
    "t", "pi", "1.5e-3", "t^2 - t", "sin(pi*t)", "-t^2 + 3*t",
    "abs(t - 1) * exp(-t)", "(t + 1)/(t + 2)", "sqrt(abs(t))^3",
    "cos(t)^2 + sin(t)^2", "t^-2", "--t", "2^-3",
]


@pytest.mark.parametrize("text", FIXED_FUZZ)
def test_pretty_round_trip_fixed_corpus(text):
    ast = parse_expr(text)
    assert parse_expr(pretty(ast)) == ast


def _ast_strategy():
    leaves = st.one_of(
        st.just(Var()),
        st.builds(Num, st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False, allow_infinity=False)),
    )

    def extend(children):
        return st.one_of(
            st.builds(Neg, children),
            st.builds(Call, st.sampled_from(["sin", "cos", "exp", "log",
                                             "sqrt", "abs"]), children),
            st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "^"]),
                      children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(ast=_ast_strategy())
@settings(max_examples=200, deadline=None)
def test_pretty_round_trip_generated_asts(ast):
    assert parse_expr(pretty(ast)) == ast
