import math

import mpmath
import pytest

from fracineq import DomainError, conjugate, gamma_fn, holder_denominator


@pytest.mark.parametrize("x", [1.0, 0.5, 1.5, 0.75, 1.3, 2.0, 3.7, 9.5])
def test_gamma_against_series_oracle(x):
    oracle = float(mpmath.gamma(x))
    assert gamma_fn(x) == pytest.approx(oracle, rel=1e-12)


def test_gamma_known_values():
    assert gamma_fn(1.0) == 1.0
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert gamma_fn(1.5) == pytest.approx(0.886226925452758, rel=1e-14)


def test_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma_fn(0.0)
    with pytest.raises(DomainError):
        gamma_fn(-1.3)


def test_conjugate():
    assert conjugate(2.0) == 2.0
    assert conjugate(4.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    with pytest.raises(DomainError):
        conjugate(1.0)


def test_holder_denominator():
    # ((alpha p - 1)/(p - 1))^((p-1)/p); equals 1 at alpha = 1
    assert holder_denominator(1.0, 2.0) == 1.0
    assert holder_denominator(0.75, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-15)
    with pytest.raises(DomainError):
        holder_denominator(0.5, 2.0)
    with pytest.raises(DomainError):
        holder_denominator(0.9, 1.0)


def test_gamma_fn_rejects_overflow_and_non_finite():
    for x in (171.7, 1e300, math.inf, math.nan):
        with pytest.raises(DomainError):
            gamma_fn(x)
