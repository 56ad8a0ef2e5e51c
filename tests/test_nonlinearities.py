"""Nonlinearity families: fixed points, concavity, scaling, tabulated data."""

from __future__ import annotations

import math

import numpy as np
import pytest

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
    phi_eval,
)
from conftest import write_linear_nonlin_table, write_nonlin_table

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
    with pytest.raises(ValueError):
        g_eval(PowerNonlin(0.5, 1.0), -0.5)
    with pytest.raises(ValueError):
        g_eval(PowerNonlin(0.5, 1.0), float("inf"))


def test_chord_slope_gap_orientation():
    with pytest.raises(ValueError):
        chord_slope_gap(PowerNonlin(0.5, 1.0), 2.0, 1.0)
    with pytest.raises(ValueError):
        chord_slope_gap(PowerNonlin(0.5, 1.0), 0.0, 1.0)


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
