"""Scalar helpers shared by the operator and inequality modules."""

import math

from .errors import DomainError

__all__ = ["gamma_fn", "conjugate", "holder_denominator"]


def gamma_fn(x: float) -> float:
    """Euler gamma function on the positive half line.

    Backed by the C library's Lanczos-class implementation; relative error
    is well below 1e-12 on (0, 10].  Arguments whose gamma overflows a
    float (x above about 171.6) raise DomainError.
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"gamma_fn requires finite x > 0 (got {x})")
    try:
        return math.gamma(x)
    except OverflowError:
        raise DomainError(f"gamma_fn({x}) overflows a float") from None


def conjugate(p: float) -> float:
    """Hoelder conjugate q = p/(p-1) of an exponent p > 1."""
    p = float(p)
    if p <= 1.0:
        raise DomainError(f"conjugate exponent requires p > 1 (got {p})")
    return p / (p - 1.0)


def holder_denominator(alpha: float, p: float) -> float:
    """The factor ((alpha*p - 1)/(p - 1))^((p-1)/p).

    This is the kernel-integral constant produced by Hoelder's inequality
    with the conjugate exponent q = p/(p-1); it equals
    (alpha*q - q + 1)^(1/q) and is positive exactly when alpha > 1/p.
    """
    alpha = float(alpha)
    p = float(p)
    if p <= 1.0:
        raise DomainError(f"holder_denominator requires p > 1 (got {p})")
    base = (alpha * p - 1.0) / (p - 1.0)
    if base <= 0.0:
        raise DomainError(
            f"holder_denominator requires alpha > 1/p (got alpha={alpha}, p={p})"
        )
    return base ** ((p - 1.0) / p)
