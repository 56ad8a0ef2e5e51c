"""convint._special against scipy.special and against 50-digit values.

scipy.special is the oracle over dense ranges of the arguments the models
pass. It loses up to a few hundred ulps in places of its own: its erfc
rounds x * x inside exp(-x * x), and its incomplete gamma functions lose
precision near x = 1 and at small x. So each bound against scipy states
that share, and the tables of 50-digit values (mpmath, rounded to double)
hold the functions' own accuracy to tighter bounds.
"""

import math

import numpy as np
import pytest
from scipy import special

from convint import _special


def ulps(got, want):
    """Distance in doubles between nonnegative floats (exact across subnormals)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert np.all(got >= 0.0) and np.all(want >= 0.0)
    return np.abs(got.view(np.int64) - want.view(np.int64))


# 50-digit values rounded to double
ERFC = [
    (0.0, 1.0),
    (1e-10, 0.999999999887162),
    (0.2, 0.7772974107895215),
    (0.46875, 0.507386526782062),
    (0.5, 0.4795001221869535),
    (1.0, 0.15729920705028513),
    (2.5, 0.0004069520174449589),
    (4.0, 1.541725790028002e-08),
    (4.5, 1.9661604415428876e-10),
    (9.0, 4.13703174651381e-37),
    (15.0, 7.212994172451207e-100),
    (26.0, 5.663192408856143e-296),
    (26.5, 2.2109076642637343e-307),
    (26.6, 1.088512588544227e-309),
    (27.0, 5.23705e-319),
]
INCOMPLETE_GAMMA = [   # (a, x, P, Q)
    (0.5, 1e-12, 1.1283791670951364e-06, 0.9999988716208329),
    (0.5, 0.01, 0.1124629160182849, 0.8875370839817152),
    (0.5, 0.3, 0.5614219739190002, 0.4385780260809999),
    (0.5, 0.99, 0.8406095932259661, 0.15939040677403393),
    (0.5, 1.0, 0.8427007929497149, 0.15729920705028513),
    (0.5, 1.7, 0.93480358092187, 0.06519641907813005),
    (0.5, 8.0, 0.9999366575163338, 6.334248366623985e-05),
    (0.5, 40.0, 1.0, 3.744097384202899e-19),
    (0.5, 300.0, 1.0, 1.674167984691788e-132),
    (1.5, 1e-12, 7.522527780632236e-19, 1.0),
    (1.5, 0.01, 0.0007477553393911979, 0.9992522446606088),
    (1.5, 0.3, 0.10356762665808858, 0.8964323733419114),
    (1.5, 0.99, 0.4234318604464039, 0.5765681395535961),
    (1.5, 1.0, 0.4275932955291202, 0.5724067044708798),
    (1.5, 1.7, 0.6660347509098394, 0.33396524909016057),
    (1.5, 8.0, 0.9988660157102147, 0.0011339842897853227),
    (1.5, 40.0, 1.0, 3.069277486172417e-17),
    (1.5, 300.0, 1.0, 1.0078435921645642e-129),
]


def test_erfc_against_scipy():
    # [0, 27] covers every interval of the approximation and the underflow
    # tail; 16 ulp plus x^2 ulp, the rounding of x * x in scipy's exponent
    rng = np.random.default_rng(31)
    x = np.concatenate([np.linspace(0.0, 27.0, 27001), rng.uniform(0.0, 27.0, 20000),
                        [0.46875, np.nextafter(0.46875, 1.0), 4.0, np.nextafter(4.0, 5.0)]])
    got, want = _special.erfc(x), special.erfc(x)
    # scipy flushes to 0 once x * x exceeds log(DBL_MAX); below that the
    # bound holds on subnormal values too
    live = x * x <= math.log(np.finfo(float).max)
    assert np.all(ulps(got[live], want[live]) <= 16 + x[live] ** 2)
    assert np.all(want[~live] == 0.0)
    tail = np.sort(x[~live])
    assert np.all(_special.erfc(tail) <= 1.2e-310) and np.all(np.diff(_special.erfc(tail)) <= 0.0)


def test_erfc_against_50_digit_values():
    # arrays by Cody's approximations, a scalar by math.erfc
    x, want = np.array(ERFC).T
    assert np.all(ulps(_special.erfc(x), want) <= 6)
    assert all(ulps(_special.erfc(float(v)), w) <= 6 for v, w in ERFC)


def test_erfc_negative_and_nonfinite_arguments():
    x = np.array([-3.0, -0.3, 0.3, 3.0])
    np.testing.assert_allclose(_special.erfc(x), special.erfc(x), rtol=4e-16)
    assert _special.erfc(np.inf) == 0.0 and _special.erfc(-np.inf) == 2.0
    assert np.isnan(_special.erfc(np.nan))


# below 1 the cell masses take differences of P, from 1 on of Q
SIDES = {"below 1": np.concatenate([[0.0], np.geomspace(1e-30, 1.0, 4000, endpoint=False)]),
         "from 1": np.linspace(1.0, 700.0, 7000)}


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("a", [0.5, 1.5])
def test_incomplete_gamma_against_scipy(a, side):
    # bounds against scipy's own loss: its P is up to ~300 ulp off at small x
    # for a = 1/2 and ~940 ulp for a = 3/2, its Q up to ~400 ulp near x = 1
    # plus about x ulp, its rounding of the exponent of x^a e^-x
    x = SIDES[side]
    p, q = _special.gammainc(a, x), _special.gammaincc(a, x)
    assert np.all(ulps(p, special.gammainc(a, x)) <= 1024)
    assert np.all(ulps(q, special.gammaincc(a, x)) <= 512 + x)
    assert np.all(np.abs(p + q - 1.0) <= 2.0 ** -52)


def test_incomplete_gamma_against_50_digit_values():
    a, x, p, q = np.array(INCOMPLETE_GAMMA).T
    for shape in (0.5, 1.5):
        at = a == shape
        assert np.all(ulps(_special.gammainc(shape, x[at]), p[at]) <= 6)
        assert np.all(ulps(_special.gammaincc(shape, x[at]), q[at]) <= 6)


def test_incomplete_gamma_refuses_other_shapes():
    with pytest.raises(ValueError, match="shapes 1/2 and 3/2"):
        _special.gammainc(2.5, [1.0])
