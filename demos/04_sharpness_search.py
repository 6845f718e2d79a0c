#!/usr/bin/env python3
"""Probing how tight the inequality constants are.

The search looks for polynomial coefficients maximizing the certificate
ratio lhs/rhs.  All cases below are p = 2 quotient families, for which any
positive budget solves the quotient over the polynomial basis directly.
Gagliardo-Nirenberg at p = q = 2 is solved the same way, an L^theta left
side with theta != 2 by Boyd's iteration, a local optimum, and the CKN and
uncertainty products at p = q = 2 by a sequence of quotients.  Other
families run a derivative-free compass search, which stops at convergence:
the budget is only a cap, and the seed has no effect.  For the sup-norm
bound at order 1 with p = 2 the linear function attains equality in the
continuum: budget 0 reports it with ratio 1, and a positive budget prints
the discrete optimum, 1.0000001 at n = 256, inside the certificate's
tolerance.  For genuinely fractional orders the best ratio over the basis
is a lower bound on the constant's tightness.
"""

import numpy as np

from fracineq import Family, InequalityCase, sharpness_search

print("=== sup-norm bound, alpha = 1, p = 2 on (0, 1): equality is attainable ===")
case = InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=1.0, p=2.0)
for budget in (0, 100, 500):
    result = sharpness_search(case, budget=budget, seed=0)
    print(f"budget {budget:4d}: best ratio {result.certificate.ratio:.9f}  "
          f"coefficients {np.round(result.coefficients, 4)}")

print()
print("=== fractional orders: how much slack does the constant leave? ===")
for alpha in (0.6, 0.75, 0.9):
    case = InequalityCase(Family.POINCARE_SOBOLEV, a=0.0, b=1.0, alpha=alpha, p=2.0)
    result = sharpness_search(case, budget=400, seed=1)
    print(f"alpha={alpha}: best ratio {result.certificate.ratio:.6f}")

print()
print("=== the search never certifies a violation ===")
case = InequalityCase(Family.HARDY, a=1.0, b=2.0, alpha=0.8, p=2.0)
result = sharpness_search(case, budget=300, seed=2)
cert = result.certificate
print(f"hardy alpha=0.8: best ratio {cert.ratio:.6f} <= 1 + {cert.disc_tol:.1e} "
      f"-> {'pass' if cert.passed else 'FAIL'}")
