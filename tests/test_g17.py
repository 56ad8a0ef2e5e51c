"""Differential tests of the array '%.17g' formatter against Python's own.

Every case compares convint._g17.format_rows with '%.17g' applied to each
value, the formatting np.savetxt(fmt="%.17g") does. The cases aim at the
places an array formatter goes wrong: the decade of values next to a power
of ten, roundings up into the next decade, exact ties, the edges of the
array path's domain and the values it leaves to '%.17g'.
"""

from fractions import Fraction

import numpy as np
import pytest

from convint._g17 import _K_MAX, _K_MIN, _powers, format_rows

SEED = 20261020


def expected(block):
    return [",".join("%.17g" % x for x in row).encode() for row in block.tolist()]


def assert_formats(values, cols=1):
    values = np.asarray(values, dtype=np.float64)
    block = values[:values.size - values.size % cols].reshape(-1, cols)
    got, want = format_rows(block), expected(block)
    bad = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def ulps_around(x, n):
    """x and the n doubles on either side of it."""
    up, down = [x], [x]
    for _ in range(n):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], 0.0))
    return down[:0:-1] + up


def test_named_values():
    # 9.9999999999999995e-08 lies below 10^-7 and prints in decade -8; the
    # double 1e-14 lies below 10^-14 too, but its 17 digits round up to 10^-14
    # and it prints in decade -14
    assert_formats([1e-7, 9.9999999999999995e-08, 1e-14, 9.99999999999999995e-5,
                    0.1, 0.5, 1.0, 2.5, 100.0, 123456.789, 1e-4, 9.999e-5, 1e-5,
                    0.30000000000000004, 1.0 / 3.0, 2.0 / 3.0, 9007199254740993.0,
                    9999999999999998.0])


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_powers_of_ten_within_12_ulps(sign):
    # every decade of the array path, and one past each end of it
    values = [v for k in range(_K_MIN - 1, _K_MAX + 2) for v in ulps_around(float(f"1e{k}"), 12)]
    assert_formats(sign * np.array(values), cols=5)


def test_round_ups_into_the_next_decade():
    # the doubles below 10^k whose 17 digits round up to 10^k: '%g' prints
    # them in decade k, not in their own; the window is narrower than an ulp
    # in most decades
    values = []
    for k in range(_K_MIN, _K_MAX + 1):
        power = Fraction(10) ** k
        x = float(f"1e{k}")
        while Fraction(x) >= power:
            x = np.nextafter(x, 0.0)
        while "%.16e" % x == "1.0000000000000000e%+03d" % k:
            values.append(x)
            x = np.nextafter(x, 0.0)
    assert 1e-14 in values
    assert_formats(values + [np.nextafter(v, 0.0) for v in values])


def test_dyadic_ties_round_to_even():
    # 1 + j 2^-17 lies exactly halfway between two 17-digit decimals for odd j
    assert_formats(1.0 + np.arange(1, 2**17) * 2.0**-17, cols=4)
    # and m 2^(k-17), m odd, does in every decade k that holds one
    rng = np.random.default_rng(SEED)
    for k in range(-5, _K_MAX + 1):
        lo, hi = 10.0**k * 2.0 ** (17 - k), min(10.0 ** (k + 1) * 2.0 ** (17 - k), 2.0**53)
        m = rng.integers(np.ceil(lo), hi, 2000) | 1
        ties = m * 2.0 ** (k - 17)
        ties = ties[(ties >= 10.0**k) & (ties < 10.0 ** (k + 1))]
        assert ties.size
        assert_formats(ties, cols=2)


def test_values_outside_the_array_domain():
    assert_formats([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-31, 9.99e-31,
                    1e16, -1e16, 1e300, -1e300, 1.7976931348623157e308, np.inf, -np.inf,
                    np.nan, 1.5, -2.5e-10], cols=1)
    assert_formats([0.0, 1.0, -0.0, np.nan, 1e-300, 0.25], cols=3)


def test_random_bit_patterns():
    rng = np.random.default_rng(SEED)
    # every double is as likely: most lie outside the array domain
    assert_formats(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64), cols=7)
    # random mantissas and signs at exponents inside the domain
    bits = (rng.integers(0, 2**52, 100_000, dtype=np.uint64)
            | rng.integers(1023 - 100, 1023 + 54, 100_000, dtype=np.uint64) << np.uint64(52)
            | rng.integers(0, 2, 100_000, dtype=np.uint64) << np.uint64(63))
    assert_formats(bits.view(np.float64), cols=13)


def test_random_decimals():
    # short decimals, whose trailing zeros '%g' drops, in every decade
    rng = np.random.default_rng(SEED + 1)
    digits = rng.integers(1, 10**6, 50_000)
    scale = 10.0 ** rng.integers(_K_MIN - 5, _K_MAX - 4, 50_000)
    assert_formats(digits * scale, cols=3)


def test_ten_to_the_q_splits_exactly():
    # 10^q = hi + lo with both doubles, for every q the array path uses
    for q, (hi, hh, hl, lo) in enumerate(_powers()):
        assert int(hi) + int(lo) == 10**q and hh + hl == hi
