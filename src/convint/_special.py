"""Special functions of the closed-form models, from numpy and math alone.

  * erfc over arrays, from W. J. Cody's rational Chebyshev approximations
    ("Rational Chebyshev approximations for the error function", Math.
    Comp. 23, 1969): erf(y) = y R1(y^2) for y <= 0.46875, and
    erfc(y) = e^(-y^2) R(y) above, R a rational function of y up to 4 and
    of 1/y^2 beyond.
  * The regularized incomplete gamma functions P(a, x) and Q(a, x) at the
    shapes a = 1/2 and 3/2 of the exp_sqrt weight, in closed form through
    erf and erfc of sqrt(x), with P(3/2, x) from its power series below
    x = 1, where the closed form cancels.
"""

from __future__ import annotations

import math

import numpy as np

_SPLIT = 0.46875                        # Cody's first interval ends here
_INV_SQRT_PI = 1.0 / math.sqrt(math.pi)
# Cody's coefficients, in his order (see _ratio): erf(y) / y as a ratio in
# y^2 on [0, 0.46875]
_A = (3.16112374387056560e00, 1.13864154151050156e02, 3.77485237685302021e02,
      3.20937758913846947e03, 1.85777706184603153e-1)
_B = (2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
      2.84423683343917062e03)
# e^(y^2) erfc(y) on (0.46875, 4]
_C = (5.64188496988670089e-1, 8.88314979438837594e00, 6.61191906371416295e01,
      2.98635138197400131e02, 8.81952221241769090e02, 1.71204761263407058e03,
      2.05107837782607147e03, 1.23033935479799725e03, 2.15311535474403846e-8)
_D = (1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
      1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
      3.43936767414372164e03, 1.23033935480374942e03)
# y e^(y^2) erfc(y) = 1/sqrt(pi) - z (P...)/(Q...) with z = 1/y^2, y > 4
_P = (3.05326634961232344e-1, 3.60344899949804439e-1, 1.25781726111229246e-1,
      1.60837851487422766e-2, 6.58749161529837803e-4, 1.63153871373020978e-2)
_Q = (2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)
_P15_TERMS = 20     # of P(3/2, x)'s series at x < 1: the 20th is below 1e-20


def _ratio(z, num, den, steps):
    """(num[-1] z^(s+1) + num[0] z^s + ... + num[s-1] z + num[s]) /
    (z^(s+1) + den[0] z^s + ... + den[s-1] z + den[s]) for s = steps, nested
    as Cody evaluates it."""
    xnum = num[-1] * z
    xden = z
    for a, b in zip(num[:steps], den[:steps]):
        xnum = (xnum + a) * z
        xden = (xden + b) * z
    return (xnum + num[steps]) / (xden + den[steps])


def _erfc_scaled(y):
    """e^(y^2) erfc(y) for y > 0.46875."""
    out = np.empty_like(y)
    mid = y <= 4.0
    out[mid] = _ratio(y[mid], _C, _D, 7)
    far = y[~mid]
    z = 1.0 / (far * far)
    out[~mid] = (_INV_SQRT_PI - z * _ratio(z, _P, _Q, 4)) / far
    return out


def _erf_erfc(y, square=None):
    """(erf(y), erfc(y)) for an array y >= 0.

    erfc(y) above 0.46875 is e^(-y^2) times _erfc_scaled(y). square is y^2
    when the caller holds it exactly; otherwise y splits into a head of
    four fractional bits, whose square is exact, and the rest, as Cody
    does, so that no rounding of y * y enters the exponent.
    """
    erf, erfc = np.empty_like(y), np.empty_like(y)
    near = y <= _SPLIT
    yn = y[near]
    erf[near] = yn * _ratio(yn * yn, _A, _B, 3)
    erfc[near] = 1.0 - erf[near]
    yf = y[~near]
    if square is None:
        head = np.trunc(16.0 * yf) / 16.0
        gauss = np.exp(-head * head) * np.exp(-(yf - head) * (yf + head))
    else:
        gauss = np.exp(-square[~near])
    erfc[~near] = gauss * _erfc_scaled(yf)
    erf[~near] = 1.0 - erfc[~near]
    return erf, erfc


def erfc(x):
    """Complementary error function of an array; a scalar (0-d) argument
    goes through math.erfc, whose one call costs less than the array
    path's masks."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return np.float64(math.erfc(x))
    # erfc(28) is below the least subnormal; the cap keeps inf out of the split
    _, out = _erf_erfc(np.minimum(np.abs(x), 28.0))
    return np.where(x < 0.0, 2.0 - out, out)


def _check_shape(a):
    if a not in (0.5, 1.5):
        raise ValueError(f"incomplete gamma implemented at shapes 1/2 and 3/2, not {a}")


def gammainc(a, x):
    """P(a, x) = gamma(a, x) / Gamma(a) for a in {1/2, 3/2} and an array x >= 0."""
    _check_shape(a)
    x = np.asarray(x, dtype=float)
    y = np.sqrt(x)
    out, _ = _erf_erfc(y, x)
    if a == 1.5:
        # P(3/2, x) = erf(sqrt x) - 2 sqrt(x / pi) e^-x; below x = 1 the two
        # terms cancel, and the series x^(3/2) e^-x / Gamma(5/2) *
        # sum_n x^n / ((5/2) (7/2) ... (3/2 + n)) takes over
        out -= 2.0 * _INV_SQRT_PI * y * np.exp(-x)
        low = x < 1.0
        xl = x[low]
        series = np.ones_like(xl)
        for n in range(_P15_TERMS, 0, -1):
            series = 1.0 + series * xl / (1.5 + n)
        out[low] = (4.0 / 3.0 * _INV_SQRT_PI) * xl * y[low] * np.exp(-xl) * series
    return out


def gammaincc(a, x):
    """Q(a, x) = Gamma(a, x) / Gamma(a) for a in {1/2, 3/2} and an array x >= 0."""
    _check_shape(a)
    x = np.asarray(x, dtype=float)
    y = np.sqrt(x)
    _, out = _erf_erfc(y, x)
    if a == 1.5:
        out += 2.0 * _INV_SQRT_PI * y * np.exp(-x)
    return out

