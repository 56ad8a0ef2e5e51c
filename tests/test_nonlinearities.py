"""Nonlinearity families: fixed points, concavity, scaling, tabulated data."""

from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from convint import (
    PowerNonlin,
    PowerPhi,
    RootPowerMeanNonlin,
    SaturatingExpNonlin,
    TabulatedNonlin,
    TwoPowerMeanNonlin,
    check_condition_iv,
    chord_slope_gap,
    g_eval,
    load_tabulated_nonlin,
    nonlinearities,
    phi_eval,
)
from conftest import write_linear_nonlin_table, write_nonlin_table
from oracles import condition_iv_margin_rows

FAMILIES = [
    PowerNonlin(alpha=0.5, eta=1.0),
    PowerNonlin(alpha=0.3, eta=0.7),
    RootPowerMeanNonlin(alpha=0.3, eta=0.72),
    TwoPowerMeanNonlin(alpha=0.4, beta=0.7, eta=1.1),
    SaturatingExpNonlin(alpha=0.6, eta=1.0),
]


@pytest.mark.parametrize("nl", FAMILIES, ids=lambda nl: type(nl).__name__)
class TestFamilyProperties:
    def test_fixed_points(self, nl):
        assert float(g_eval(nl, 0.0)) == 0.0
        assert float(g_eval(nl, nl.eta)) == pytest.approx(nl.eta, rel=1e-14)

    def test_strictly_increasing(self, nl):
        u = np.linspace(0.0, 3.0 * nl.eta, 400)
        assert np.all(np.diff(np.asarray(g_eval(nl, u))) > 0.0)

    def test_strictly_concave(self, nl):
        for lo in (0.1, 0.5, 1.0):
            assert chord_slope_gap(nl, lo * nl.eta, 2.5 * nl.eta) > 0.0

    def test_declared_phi_exponent_certifies_scaling(self, nl):
        phi = PowerPhi(p=nl.phi_exponent)
        ok, margin = check_condition_iv(nl, phi, nl.eta, 2.0 * nl.eta)
        assert ok, margin


def test_power_closed_form():
    nl = PowerNonlin(alpha=0.5, eta=4.0)
    assert float(g_eval(nl, 1.0)) == pytest.approx(2.0, rel=1e-15)
    assert float(g_eval(nl, 9.0)) == pytest.approx(6.0, rel=1e-15)


def test_power_scaling_is_exact():
    # G(sigma u) = sigma^alpha G(u), so the margin with p = alpha is zero
    nl = PowerNonlin(alpha=0.4, eta=1.0)
    _, margin = check_condition_iv(nl, PowerPhi(0.4), 1.0, 2.0)
    assert margin == pytest.approx(0.0, abs=1e-13)


def test_mismatched_phi_fails_scaling():
    nl = PowerNonlin(alpha=0.9, eta=1.0)
    ok, margin = check_condition_iv(nl, PowerPhi(0.01), 1.0, 2.0)
    assert not ok
    assert margin < -1e-3


def test_exponent_validation():
    with pytest.raises(ValueError):
        PowerNonlin(alpha=1.0, eta=1.0)
    with pytest.raises(ValueError):
        PowerNonlin(alpha=0.0, eta=1.0)
    with pytest.raises(ValueError):
        PowerNonlin(alpha=0.5, eta=0.0)
    with pytest.raises(ValueError):
        TwoPowerMeanNonlin(alpha=0.5, beta=1.2, eta=1.0)


def test_saturating_exp_gain():
    nl = SaturatingExpNonlin(alpha=0.6, eta=2.0)
    assert nl.gain == pytest.approx(2.0 / (1.0 - math.exp(-2.0)), rel=1e-15)
    inner = 2.0 ** 0.4 * 0.5 ** 0.6
    want = nl.gain * (1.0 - math.exp(-inner))
    assert float(g_eval(nl, 0.5)) == pytest.approx(want, rel=1e-14)


class TestPhi:
    def test_endpoints_and_range(self):
        phi = PowerPhi(p=0.5)
        assert float(phi_eval(phi, 0.0)) == 0.0
        assert float(phi_eval(phi, 1.0)) == 1.0
        assert float(phi_eval(phi, 0.25)) == pytest.approx(0.5)
        with pytest.raises(ValueError):
            phi_eval(phi, 1.5)
        with pytest.raises(ValueError):
            phi_eval(phi, -0.1)

    def test_exponent_domain(self):
        PowerPhi(1.0)
        with pytest.raises(ValueError):
            PowerPhi(0.0)
        with pytest.raises(ValueError):
            PowerPhi(1.5)


def test_g_eval_rejects_negative():
    nl = PowerNonlin(0.5, 1.0)
    for bad in (-0.5, float("inf"), float("nan"), -float("inf"),
                np.array([0.5, 1.0, -1e-300, 2.0]), np.array([[1.0], [np.nan]])):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            g_eval(nl, bad)
    # negative zero is zero
    assert float(g_eval(nl, -0.0)) == 0.0
    np.testing.assert_array_equal(g_eval(nl, np.array([-0.0, 1.0])), [0.0, 1.0])


def test_chord_slope_gap_orientation():
    with pytest.raises(ValueError):
        chord_slope_gap(PowerNonlin(0.5, 1.0), 2.0, 1.0)
    with pytest.raises(ValueError):
        chord_slope_gap(PowerNonlin(0.5, 1.0), 0.0, 1.0)


def sqrt_table():
    u = np.linspace(0.0, 4.0, 81)
    return TabulatedNonlin(u, np.sqrt(u), eta=1.0)


@pytest.mark.parametrize("nl", FAMILIES + [sqrt_table()], ids=lambda nl: type(nl).__name__)
def test_chord_slope_gap_array_matches_scalar_calls(nl):
    u_hi = 2.5 * nl.eta
    u_lo = np.linspace(u_hi / 64, u_hi * (1.0 - 1.0 / 64), 63)
    gaps = chord_slope_gap(nl, u_lo, u_hi)
    assert gaps.shape == u_lo.shape
    one_by_one = [chord_slope_gap(nl, float(x), u_hi) for x in u_lo]
    assert all(isinstance(g, float) for g in one_by_one)
    np.testing.assert_array_equal(gaps, one_by_one)


@pytest.mark.parametrize("bad", [0.0, -0.1, 2.5, 3.0, np.nan])
def test_chord_slope_gap_array_domain(bad):
    u_lo = np.array([0.5, 1.0, bad, 2.0])
    with pytest.raises(ValueError, match="0 < u_lo < u_hi"):
        chord_slope_gap(PowerNonlin(0.5, 1.0), u_lo, 2.5)


@pytest.mark.parametrize("nl", [FAMILIES[0], FAMILIES[2], FAMILIES[4], sqrt_table()],
                         ids=lambda nl: type(nl).__name__)
@pytest.mark.parametrize("p", [0.3, 0.6, 1.0])
def test_condition_iv_matches_row_loop(nl, p, monkeypatch):
    phi = PowerPhi(p)
    for samples in (2, 7, 64):
        monkeypatch.setattr(nonlinearities, "SAMPLES", samples)
        ok, margin = check_condition_iv(nl, phi, nl.eta, 2.0 * nl.eta, tol=0.0)
        assert margin == condition_iv_margin_rows(nl, phi, nl.eta, 2.0 * nl.eta, samples)
        assert ok == (margin >= 0.0)
        # p = 0.3 is below every model's exponent: the failing side is
        # compared too, wherever a sample sigma lies strictly inside (0, 1)
        if p == 0.3 and samples > 2:
            assert margin < 0.0


class TestTabulated:
    def test_matches_sampled_shape(self, tmp_path):
        nl = load_tabulated_nonlin(write_nonlin_table(tmp_path / "g.csv"))
        assert nl.eta == 1.0
        u = np.linspace(0.05, 3.5, 60)
        np.testing.assert_allclose(np.asarray(g_eval(nl, u)), np.sqrt(u),
                                   rtol=2e-6)
        # eta falls between samples; the fixed point holds to table fidelity
        assert float(g_eval(nl, nl.eta)) == pytest.approx(1.0, abs=1e-6)

    def test_beyond_table_refused(self, tmp_path):
        nl = load_tabulated_nonlin(write_nonlin_table(tmp_path / "g.csv"))
        assert nl.u_max == 4.0
        with pytest.raises(ValueError):
            g_eval(nl, 4.5)

    def test_linear_table_has_zero_chord_gap(self, tmp_path):
        nl = load_tabulated_nonlin(
            write_linear_nonlin_table(tmp_path / "lin.csv"))
        assert chord_slope_gap(nl, 0.5, 2.5) == pytest.approx(0.0, abs=1e-12)

    def test_structural_rejects(self):
        with pytest.raises(ValueError):
            TabulatedNonlin([0.0, 1.0], [0.0, 1.0], eta=0.5)
        with pytest.raises(ValueError):
            TabulatedNonlin([0.1, 1.0, 2.0], [0.1, 1.0, 1.4], eta=1.0)
        with pytest.raises(ValueError):
            TabulatedNonlin([0.0, 1.0, 2.0], [0.0, 1.0, 0.9], eta=1.0)
        with pytest.raises(ValueError):
            TabulatedNonlin([0.0, 1.0, 2.0], [0.0, 1.0, 1.4], eta=3.0)

    def test_loader_needs_eta(self, tmp_path):
        p = tmp_path / "no_eta.csv"
        p.write_text("u,g\n0,0\n1,1\n2,1.4\n")
        with pytest.raises(ValueError):
            load_tabulated_nonlin(p)
        nl = load_tabulated_nonlin(p, eta=1.0)
        assert nl.eta == 1.0

    def test_header_only_table_refused(self, tmp_path):
        # and a table whose rows are short of the header or not numbers,
        # or whose eta is not a number
        p = tmp_path / "bad.csv"
        for text, reason in [("# eta=1.0\nu,g\n", "no data rows"),
                             ("# eta=1.0\nu,g\n0,0\n1\n2,1.4\n",
                              "line 4: expected 2 numbers, got [1.0]"),
                             ("# eta=1.0\nu,g\n0,0\n1,x\n",
                              "line 4: could not convert string to float: 'x'"),
                             ("u,g\n0,0\n# eta=x\n1,1\n",
                              "line 3: could not convert string to float: 'x'")]:
            p.write_text(text)
            with pytest.raises(ValueError, match=f"bad.csv: {re.escape(reason)}$"):
                load_tabulated_nonlin(p)


def _read_table(path):
    rows = [line.split(",") for line in Path(path).read_text().splitlines()
            if line.strip() and not line.startswith("#")][1:]
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1]


def _oracle_tables():
    data = Path(__file__).resolve().parents[1] / "demos" / "data"
    yield "linear_map", _read_table(data / "linear_map.csv")
    yield "sqrt_map", _read_table(data / "sqrt_map.csv")
    # dense geometric knots with u = 1 among them, as the benchmark's map
    u = np.array(sorted({0.0, 1.0, *np.geomspace(1e-8, 8.0, 241)}))
    yield "geometric_243", (u, u ** 0.5)
    rng = np.random.default_rng(20240)
    for k in range(4):
        n = int(rng.integers(3, 300))
        spread = 10.0 ** rng.uniform(-6.0, 2.0, size=2)
        u = np.concatenate([[0.0], np.cumsum(rng.exponential(spread[0], n - 1))])
        g = np.concatenate([[0.0], np.cumsum(rng.exponential(spread[1], n - 1))])
        yield f"random_{k}", (u, g)


@pytest.mark.parametrize("table", list(_oracle_tables()), ids=lambda t: t[0])
class TestMonotoneCubicOracle:
    """The in-house monotone cubic against scipy's PchipInterpolator. The
    two share their arithmetic; 2 ulp leaves room for a scipy release that
    reorders it."""

    @staticmethod
    def _pair(table):
        u, g = table[1]
        return (TabulatedNonlin(u, g, eta=float(u[-1]) / 2.0),
                PchipInterpolator(u, g, extrapolate=False))

    def test_coefficients(self, table):
        nl, ref = self._pair(table)
        for mine, theirs in zip(nl._cubic.c, ref.c):
            np.testing.assert_array_max_ulp(mine, theirs, maxulp=2)

    def test_values_at_and_beside_every_knot(self, table):
        nl, ref = self._pair(table)
        knots = ref.x
        u = np.concatenate([knots, np.nextafter(knots, np.inf),
                            np.nextafter(knots[1:], -np.inf)])
        expected = ref(np.minimum(u, nl.u_max))
        assert not np.isnan(expected).any()
        np.testing.assert_array_max_ulp(nl.g(u), expected, maxulp=2)
        # a 2-D array, as condition IV passes it
        np.testing.assert_array_max_ulp(nl.g(u[:48].reshape(6, 8)),
                                        expected[:48].reshape(6, 8), maxulp=2)

    def test_ends_as_scalars_and_arrays(self, table):
        nl, ref = self._pair(table)
        for end in (0.0, nl.u_max):
            value = nl.g(end)
            assert isinstance(value, float)
            np.testing.assert_array_max_ulp(value, float(ref(end)), maxulp=2)
            np.testing.assert_array_max_ulp(nl.g(np.array([end])), ref([end]),
                                            maxulp=2)
        assert nl.g(0.0) == 0.0

    def test_below_zero_is_nan(self, table):
        nl, ref = self._pair(table)
        below = -np.nextafter(0.0, 1.0)
        assert math.isnan(nl.g(below)) and math.isnan(float(ref(below)))
        assert math.isnan(nl.g(-1.0)) and math.isnan(nl.g(math.nan))
        out = nl.g(np.array([-1.0, math.nan, 0.0, nl.u_max]))
        np.testing.assert_array_equal(np.isnan(out), [True, True, False, False])
        np.testing.assert_array_max_ulp(out[2:], ref([0.0, nl.u_max]), maxulp=2)


def test_negative_zero_sample_evaluates_as_scipy():
    # a table on which the sum would otherwise end at -0.0
    u, g = np.array([0.0, 2.25, 3.5]), np.array([-0.0, 1.0, 1.5])
    value = TabulatedNonlin(u, g, eta=1.0).g(-0.0)
    expected = float(PchipInterpolator(u, g, extrapolate=False)(-0.0))
    assert (value, math.copysign(1.0, value)) == (expected, math.copysign(1.0, expected))
