"""High-accuracy reference quadrature for weakly singular kernels.

This is the independent oracle used to cross-check the grid operators: it
never touches the product-integration weights, working instead through a
singularity-removing change of variable plus adaptive quadrature.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ConvergenceError, DomainError
from .special import gamma_fn

__all__ = [
    "reference_integral",
    "reference_rl_integral",
    "reference_caputo",
    "reference_hadamard_integral",
    "reference_hadamard_derivative",
]


def reference_integral(f: Callable[[float], float], a: float, t: float,
                       alpha: float, tol: float = 1e-12) -> float:
    """Evaluate integral_a^t (t - s)^(alpha-1) f(s) ds to absolute tolerance.

    The substitution s = t - (t - a) v^(1/alpha) removes the endpoint
    singularity exactly:

        integral = (t - a)^alpha / alpha * integral_0^1 f(t - (t-a) v^(1/alpha)) dv,

    and the transformed integrand is handled by adaptive Gauss-Kronrod.
    Raises ConvergenceError when the quadrature error estimate exceeds tol.
    """
    from scipy.integrate import quad  # loaded on first use, not on import fracineq

    if alpha <= 0.0:
        raise DomainError(f"reference_integral requires alpha > 0 (got {alpha})")
    if not a < t:
        raise DomainError(f"reference_integral requires a < t (got a={a}, t={t})")
    width = t - a
    scale = width**alpha / alpha
    inv_alpha = 1.0 / alpha

    def transformed(v: float) -> float:
        return f(t - width * v**inv_alpha)

    value, err = quad(transformed, 0.0, 1.0,
                      epsabs=0.1 * tol / scale, epsrel=1e-13, limit=400)
    if err * scale > tol:
        raise ConvergenceError(
            f"quadrature error estimate {err * scale:.3e} exceeds tolerance {tol:.3e}"
        )
    return scale * value


def reference_rl_integral(f: Callable[[float], float], a: float, t: float,
                          alpha: float, tol: float = 1e-12) -> float:
    """Left fractional integral of order alpha: kernel convolution over Gamma(alpha)."""
    return reference_integral(f, a, t, alpha, tol) / gamma_fn(alpha)


def reference_caputo(fprime: Callable[[float], float], a: float, t: float,
                     alpha: float, tol: float = 1e-12) -> float:
    """Fractional derivative of order alpha in (0, 1) from the classical derivative.

    Computed as the order-(1 - alpha) fractional integral of fprime.
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"reference_caputo requires 0 < alpha < 1 (got {alpha})")
    return reference_integral(fprime, a, t, 1.0 - alpha, tol) / gamma_fn(1.0 - alpha)


def reference_hadamard_integral(f: Callable[[float], float], a: float, t: float,
                                alpha: float, tol: float = 1e-12) -> float:
    """Hadamard fractional integral via the exact substitution sigma = log(s/a)."""
    if a <= 0.0:
        raise DomainError("hadamard kernels require a > 0")
    tau = math.log(t / a)
    return reference_integral(lambda s: f(a * math.exp(s)), 0.0, tau, alpha,
                              tol) / gamma_fn(alpha)


def reference_hadamard_derivative(fprime: Callable[[float], float], a: float,
                                  t: float, alpha: float,
                                  tol: float = 1e-12) -> float:
    """Hadamard fractional derivative of order alpha in (0, 1).

    Uses d/dsigma f(a e^sigma) = s f'(s), then the order-(1 - alpha)
    fractional integral of that derivative on the logarithmic axis.
    """
    if a <= 0.0:
        raise DomainError("hadamard kernels require a > 0")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"requires 0 < alpha < 1 (got {alpha})")
    tau = math.log(t / a)

    def dudsigma(sigma: float) -> float:
        s = a * math.exp(sigma)
        return s * fprime(s)

    return reference_integral(dudsigma, 0.0, tau, 1.0 - alpha, tol) / gamma_fn(1.0 - alpha)
