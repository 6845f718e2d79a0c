"""Tiny arithmetic expression language for test functions of one variable t.

Grammar (precedence low to high; ^ is right-associative and binds tighter
than unary minus):

    expr    := term (('+' | '-') term)*
    term    := unary (('*' | '/') unary)*
    unary   := '-' unary | power
    power   := primary ('^' unary)?
    primary := NUMBER | 't' | 'pi' | FUNC '(' expr ')' | '(' expr ')'
    FUNC    := sin | cos | exp | log | sqrt | abs

Unknown identifiers are rejected at parse time, and so is nesting deeper
than MAX_DEPTH levels, where each operator, call and parenthesised group is
one level (the parser, the evaluator and ``pretty`` recurse once per level).
Evaluation is IEEE double arithmetic.  It raises EvalError on domain
violations and NumericError when a value overflows or is otherwise not
finite, without printing numpy's floating-point warnings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import EvalError, NumericError, ParseError

__all__ = ["ExprNode", "Num", "Var", "Neg", "BinOp", "Call",
           "MAX_DEPTH", "parse_expr", "eval_expr", "pretty"]

MAX_DEPTH = 100  # up to 6 parser frames a level: 600 at the limit, under Python's 1000

_FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")
_CONSTANTS = {"pi": np.pi}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    """The free variable t."""


@dataclass(frozen=True)
class Neg:
    operand: "ExprNode"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "ExprNode"
    right: "ExprNode"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "ExprNode"


ExprNode = Union[Num, Var, Neg, BinOp, Call]


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "lparen" | "rparen" | "eof"
    text: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^":
            tokens.append(_Token("op", ch, i))
            i += 1
        elif ch == "(":
            tokens.append(_Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            tokens.append(_Token("rparen", ch, i))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                float(lit)
            except ValueError:
                raise ParseError(f"bad number literal {lit!r}", i) from None
            tokens.append(_Token("num", lit, i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", n))
    return tokens


class _Parser:
    """Recursive descent; each method returns (node, nesting depth)."""

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.level = 0  # levels entered and not yet left

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(f"unexpected {self.cur.text or 'end of input'!r}",
                             self.cur.offset, (what,))
        return self.advance()

    @staticmethod
    def check(depth: int, tok: _Token) -> int:
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {MAX_DEPTH} levels",
                             tok.offset)
        return depth

    def nested(self, parse, tok: _Token):
        """parse() one level down; refused before the recursion gets deep."""
        self.level = self.check(self.level + 1, tok)
        node, depth = parse()
        self.level -= 1
        return node, self.check(depth + 1, tok)

    def expr(self):
        node, depth = self.term()
        while self.cur.kind == "op" and self.cur.text in "+-":
            tok = self.advance()
            right, right_depth = self.term()
            node = BinOp(tok.text, node, right)
            depth = self.check(max(depth, right_depth) + 1, tok)
        return node, depth

    def term(self):
        node, depth = self.unary()
        while self.cur.kind == "op" and self.cur.text in "*/":
            tok = self.advance()
            right, right_depth = self.unary()
            node = BinOp(tok.text, node, right)
            depth = self.check(max(depth, right_depth) + 1, tok)
        return node, depth

    def unary(self):
        if self.cur.kind == "op" and self.cur.text == "-":
            node, depth = self.nested(self.unary, self.advance())
            return Neg(node), depth
        return self.power()

    def power(self):
        base, depth = self.primary()
        if self.cur.kind == "op" and self.cur.text == "^":
            tok = self.advance()
            exponent, exponent_depth = self.nested(self.unary, tok)
            return BinOp("^", base, exponent), self.check(max(depth + 1, exponent_depth), tok)
        return base, depth

    def primary(self):
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text)), 0
        if tok.kind == "ident":
            self.advance()
            if tok.text == "t":
                return Var(), 0
            if tok.text in _CONSTANTS:
                return Num(_CONSTANTS[tok.text]), 0
            if tok.text in _FUNCTIONS:
                self.expect("lparen", "'('")
                arg, depth = self.nested(self.expr, tok)
                self.expect("rparen", "')'")
                return Call(tok.text, arg), depth
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset,
                             ("t", "pi") + _FUNCTIONS)
        if tok.kind == "lparen":
            self.advance()
            node, depth = self.nested(self.expr, tok)
            self.expect("rparen", "')'")
            return node, depth
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.offset,
                         ("number", "t", "pi", "function", "'('"))


def parse_expr(text: str) -> ExprNode:
    """Parse expression text into an AST; whitespace-insensitive."""
    parser = _Parser(_tokenize(text))
    node, _depth = parser.expr()
    if parser.cur.kind != "eof":
        raise ParseError(f"trailing input {parser.cur.text!r}", parser.cur.offset)
    return node


def eval_expr(node: ExprNode, t):
    """Evaluate an AST at a scalar or array argument t; every value must be finite."""
    t = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        value = _eval(node, t)
    if not np.all(np.isfinite(value)):
        raise NumericError("expression value overflows or is not a number")
    value = np.broadcast_to(value, t.shape) if t.shape else value
    return float(value) if t.ndim == 0 else np.array(value, dtype=float)


def _eval(node: ExprNode, t):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return t
    if isinstance(node, Neg):
        return -_eval(node.operand, t)
    if isinstance(node, BinOp):
        lhs = _eval(node.left, t)
        rhs = _eval(node.right, t)
        if node.op == "+":
            return lhs + rhs
        if node.op == "-":
            return lhs - rhs
        if node.op == "*":
            return lhs * rhs
        if node.op == "/":
            if np.any(rhs == 0.0):
                raise EvalError("division by zero")
            return lhs / rhs
        if node.op == "^":
            # an overflow is left to eval_expr's finiteness check
            out = np.power(lhs, rhs)
            if np.any(np.isnan(out) | ((lhs == 0.0) & (rhs < 0.0))) \
                    and np.all(np.isfinite(lhs)) and np.all(np.isfinite(rhs)):
                raise EvalError("power is undefined (negative base with "
                                "fractional exponent, or 0 to a negative power)")
            return out
        raise EvalError(f"unknown operator {node.op!r}")  # pragma: no cover
    if isinstance(node, Call):
        arg = _eval(node.arg, t)
        if node.fn == "log":
            if np.any(arg <= 0.0):
                raise EvalError("log of a non-positive value")
            return np.log(arg)
        if node.fn == "sqrt":
            if np.any(arg < 0.0):
                raise EvalError("sqrt of a negative value")
            return np.sqrt(arg)
        return {"sin": np.sin, "cos": np.cos, "exp": np.exp, "abs": np.abs}[node.fn](arg)
    raise EvalError(f"unknown node {node!r}")  # pragma: no cover


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(node: ExprNode) -> str:
    """Render an AST back to parseable text with minimal parentheses."""
    return _render(node, 0)


def _render(node: ExprNode, parent_prec: int) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Neg):
        inner = _render(node.operand, _PRECEDENCE["neg"])
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
    if isinstance(node, Call):
        return f"{node.fn}({_render(node.arg, 0)})"
    prec = _PRECEDENCE[node.op]
    if node.op == "^":
        # right-associative; the exponent re-enters at unary level
        left = _render(node.left, prec + 1)
        right = _render(node.right, _PRECEDENCE["neg"])
    else:
        left = _render(node.left, prec)
        right = _render(node.right, prec + 1)
    text = f"{left} {node.op} {right}"
    return f"({text})" if parent_prec > prec else text
