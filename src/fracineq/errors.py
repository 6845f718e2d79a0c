"""Exception types shared across the package.

Each class states the command-line exit code it maps to: 3 for a rejected
input (domain, parameter, hypothesis, parse and evaluation errors) and 4 for
an internal numeric failure.
"""

__all__ = ["FracineqError", "DomainError", "ParamError", "HypothesisError", "ParseError",
           "EvalError", "ConvergenceError", "SolveError", "NumericError", "SizeError"]


class FracineqError(Exception):
    """Base class for all errors raised by fracineq."""

    exit_code = 4


class DomainError(FracineqError):
    """An argument lies outside the mathematical domain of an operation."""

    exit_code = 3


class SizeError(DomainError):
    """A grid is too large for an operation; a sweep raises it for all cells."""


class ParamError(FracineqError):
    """An inequality case violates one of its hypotheses.

    The message names the violated clause, e.g. ``"hardy: requires a > 0"``.
    """

    exit_code = 3


class HypothesisError(FracineqError):
    """A grid function violates the boundary hypothesis of an inequality."""

    exit_code = 3


class ParseError(FracineqError):
    """Expression text could not be parsed.

    Attributes:
        offset: byte offset of the offending token.
        expected: tuple of token descriptions that would have been accepted.
    """

    exit_code = 3

    def __init__(self, message: str, offset: int, expected: tuple = ()):
        super().__init__(f"{message} at offset {offset}"
                         + (f" (expected {', '.join(expected)})" if expected else ""))
        self.offset = offset
        self.expected = tuple(expected)


class EvalError(FracineqError):
    """Expression evaluation hit a domain violation (log of non-positive, ...)."""

    exit_code = 3


class ConvergenceError(FracineqError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SolveError(FracineqError):
    """A linear solve failed."""


class NumericError(FracineqError):
    """An internal computation produced a non-finite value."""
