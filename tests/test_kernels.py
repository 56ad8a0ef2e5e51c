"""Kernel models: closed-form scalars, tails, evenness, and the CSV loader."""

from __future__ import annotations

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, special

from convint import (
    ExpMixtureKernel,
    GaussianKernel,
    TabulatedKernel,
    kernel_eval,
    kernel_factors,
    kernel_scalars,
    kernel_tail_mass,
    kernel_tail_one_sided,
    load_tabulated_kernel,
)
from convint.kernels import MIXTURE_TAIL_CUT
from conftest import write_kernel_table
from oracles import kernel_scalars_quadrature

SQRT_PI = math.sqrt(math.pi)
DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
COEFFS_2X2 = np.array([[0.8, 0.3], [0.3, 1.1]])


class TestGaussian:
    def test_scalars_closed_form(self):
        sc = kernel_scalars(GaussianKernel(COEFFS_2X2))
        np.testing.assert_allclose(sc.a, COEFFS_2X2, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(sc.sup, COEFFS_2X2 / SQRT_PI, rtol=1e-15)
        np.testing.assert_allclose(sc.first_moment, COEFFS_2X2 / (2.0 * SQRT_PI),
                                   rtol=1e-15)

    def test_scalars_match_quadrature_route(self):
        model = GaussianKernel(COEFFS_2X2)
        auto = kernel_scalars(model)
        quad = kernel_scalars_quadrature(model)
        np.testing.assert_allclose(quad.a, auto.a, rtol=1e-10)
        np.testing.assert_allclose(quad.sup, auto.sup, rtol=1e-8)
        np.testing.assert_allclose(quad.first_moment, auto.first_moment,
                                   rtol=1e-10)

    def test_eval_even_positive(self):
        model = GaussianKernel(COEFFS_2X2)
        tau = np.linspace(0.0, 6.0, 50)
        for i in range(2):
            for j in range(2):
                plus = kernel_eval(model, i, j, tau)
                minus = kernel_eval(model, i, j, -tau)
                np.testing.assert_array_equal(plus, minus)
                assert np.all(plus > 0.0)
        assert kernel_eval(model, 0, 1, 0.0) == pytest.approx(0.3 / SQRT_PI)

    def test_tail_is_erfc(self):
        model = GaussianKernel(COEFFS_2X2)
        for r in (0.0, 1.0, 3.0):
            ref, _ = integrate.quad(lambda t: model.eval(0, 1, t), r, np.inf)
            assert kernel_tail_mass(model, 0, 1, r) == pytest.approx(
                2.0 * ref, rel=1e-12)
            assert kernel_tail_one_sided(model, 0, 1, r) == pytest.approx(
                ref, rel=1e-12)

    def test_rescaled_scales_scalars(self):
        sc = kernel_scalars(GaussianKernel(COEFFS_2X2).rescaled(0.25))
        np.testing.assert_allclose(sc.a, 0.25 * COEFFS_2X2, rtol=1e-15)

    def test_bad_coeffs_rejected(self):
        with pytest.raises(ValueError):
            GaussianKernel([[1.0, 0.2], [0.3, 1.0]])
        with pytest.raises(ValueError):
            GaussianKernel([[0.0]])
        with pytest.raises(ValueError):
            GaussianKernel([[1.0, 2.0]])

    # finiteness is checked before symmetry: a NaN is not reported as
    # asymmetric, and an infinite entry gives numpy no infinite tolerance
    @pytest.mark.parametrize("model", [GaussianKernel, ExpMixtureKernel],
                             ids=["gaussian", "exp_mixture"])
    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_nonfinite_coeffs_rejected(self, model, entry):
        with pytest.raises(ValueError, match="coefficient entries must be finite and positive"):
            model([[entry]])


class TestExpMixture:
    def test_unit_density_closed_forms(self):
        # L = 1 on [1, 2]: value at 0 is int_1^2 ds = 1, row integral is
        # int_1^2 2/s ds = 2 ln 2, half-moment int_1^2 s^-2 ds = 1/2
        model = ExpMixtureKernel(coeffs=[[1.0]], s_lo=1.0, s_hi=2.0)
        assert kernel_eval(model, 0, 0, 0.0) == pytest.approx(1.0, abs=1e-13)
        sc = kernel_scalars(model)
        assert sc.a[0, 0] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)
        assert sc.sup[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert sc.first_moment[0, 0] == pytest.approx(0.5, rel=1e-12)

    def test_eval_matches_direct_quadrature(self):
        model = ExpMixtureKernel(coeffs=[[0.7]], s_lo=1.0, s_hi=3.0,
                                 power=1.0, decay=0.5)
        for tau in (0.0, 0.8, 2.5):
            ref, _ = integrate.quad(
                lambda s: 0.7 * math.exp(-abs(tau) * s) * s * math.exp(-0.5 * s),
                1.0, 3.0, epsabs=1e-14, epsrel=1e-13)
            assert kernel_eval(model, 0, 0, tau) == pytest.approx(ref, rel=1e-12)

    def test_tail_matches_quadrature(self):
        model = ExpMixtureKernel(coeffs=[[1.0]], s_lo=1.0, s_hi=2.0)
        ref, _ = integrate.quad(lambda t: model.eval(0, 0, t), 2.0, np.inf)
        assert kernel_tail_one_sided(model, 0, 0, 2.0) == pytest.approx(
            ref, rel=1e-10)

    def test_infinite_support_truncated_by_decay(self):
        model = ExpMixtureKernel(coeffs=[[1.0]], s_lo=1.0, s_hi=np.inf,
                                 power=1.0, decay=1.0)
        ref, _ = integrate.quad(lambda s: s * math.exp(-s - 0.5 * s), 1.0, np.inf)
        assert kernel_eval(model, 0, 0, 0.5) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("power", [0.0, 1.0, 2.0, 0.5, 2.5, 7.3])
    @pytest.mark.parametrize("decay", [0.01, 0.5, 2.0, 30.0])
    def test_density_tail_against_scipy(self, power, decay):
        # int_s0^inf s^(p-1) e^(-q s) ds: E1(q s0) at p = 0, else
        # q^-p Gamma(p) Q(p, q s0). Within 512 ulp: scipy's own Q loses up
        # to a few hundred near q s0 = 1 (tests/test_special.py)
        model = ExpMixtureKernel(coeffs=[[1.0]], s_lo=1.0, s_hi=np.inf,
                                 power=power, decay=decay)
        for s0 in np.geomspace(1e-3, 100.0 / decay, 41):
            y = decay * s0
            want = (special.exp1(y) if power == 0.0 else
                    special.gammaincc(power, y) * special.gamma(power) * decay ** -power)
            got = model._density_tail(float(s0))
            assert abs(got - want) <= 512 * np.spacing(want), s0

    def test_density_tail_beyond_the_float_range(self):
        # Gamma(172, 20) overflows although q^-p Gamma(p, q s0) does not for
        # larger s0: the tail reads inf until it fits, and the rule ends at
        # 32, where int_s0^inf s^171 e^(-20 s) ds first drops below 1e-14
        # (1.8e-22 at 32 against 9.1e65 at 16)
        model = ExpMixtureKernel(coeffs=[[1.0]], s_lo=1.0, s_hi=np.inf, power=172.0, decay=20.0)
        assert model._density_tail(1.0) == math.inf
        assert model._density_tail(32.0) == pytest.approx(1.844248587819768e-22, rel=1e-13)
        finite = ExpMixtureKernel(coeffs=[[1.0]], s_lo=1.0, s_hi=32.0, power=172.0, decay=20.0)
        assert np.array_equal(model._s, finite._s)

    def test_density_that_overflows_is_refused(self):
        # s^200 overflows beyond s = 2^(1024/200), well inside the rule cut
        # at 2048: refused with power and decay named, and without a numpy
        # warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^mixture density s\^power e\^\(-decay s\) "
                                                 r"is not finite on the s rule \[1, 2048\] "
                                                 r"\(power 200, decay 1\)$"):
                ExpMixtureKernel(coeffs=[[1.0]], s_lo=1.0, s_hi=np.inf, power=200.0, decay=1.0)
            # power 172 with decay 20 fits the float range on its rule, cut at 32
            model = ExpMixtureKernel(coeffs=[[1.0]], s_lo=1.0, s_hi=np.inf,
                                     power=172.0, decay=20.0)
        assert np.all(np.isfinite(model._dens)) and np.max(model._dens) > 0.0

    def test_radiative_cut_unchanged(self):
        # demo radiative's s rule ends at the first doubling of s_lo with a
        # density tail of at most 1e-14, the same doubling scipy's tail picks
        doc = json.loads((DEMO_CONFIGS / "radiative.json").read_text())["kernel"]
        p, q = doc["power"], doc["decay"]
        cut = float(doc["s_lo"])
        while special.gammaincc(p, q * cut) * special.gamma(p) * q ** -p > MIXTURE_TAIL_CUT:
            cut *= 2.0
        model = ExpMixtureKernel(doc["coeffs"], doc["s_lo"], math.inf, p, q)
        finite = ExpMixtureKernel(doc["coeffs"], doc["s_lo"], cut, p, q)
        assert cut == 16.0
        assert np.array_equal(model._s, finite._s) and np.array_equal(model._w, finite._w)

    def test_bad_support_rejected(self):
        with pytest.raises(ValueError):
            ExpMixtureKernel(coeffs=[[1.0]], s_lo=0.0, s_hi=2.0)
        with pytest.raises(ValueError):
            ExpMixtureKernel(coeffs=[[1.0]], s_lo=2.0, s_hi=1.0)
        with pytest.raises(ValueError):
            ExpMixtureKernel(coeffs=[[1.0]], s_lo=1.0, s_hi=np.inf, decay=0.0)


class TestTabulated:
    def make(self, coeffs=((1.0,),)):
        coeffs = np.asarray(coeffs, dtype=float)
        tau = np.linspace(0.0, 10.0, 2001)
        tables = coeffs[:, :, None] * np.exp(-tau * tau)[None, None, :] / SQRT_PI
        return TabulatedKernel(tau, tables)

    def test_eval_interpolates_and_extends_evenly(self):
        model = self.make()
        tau = np.array([-3.3, -0.4, 0.0, 0.4, 3.3])
        vals = np.asarray(kernel_eval(model, 0, 0, tau))
        np.testing.assert_array_equal(vals, vals[::-1])
        np.testing.assert_allclose(vals, np.exp(-tau * tau) / SQRT_PI,
                                   rtol=1e-5)
        assert kernel_eval(model, 0, 0, 11.0) == 0.0

    def test_scalars_approach_the_sampled_shape(self):
        sc = kernel_scalars(self.make([[0.8, 0.3], [0.3, 1.1]]))
        np.testing.assert_allclose(sc.a, COEFFS_2X2, rtol=1e-6)
        np.testing.assert_allclose(sc.sup, COEFFS_2X2 / SQRT_PI, rtol=1e-12)
        # the linear interpolant's first moment carries the O(h^2) trapezoid
        # defect of t * k(t), which does not vanish at t = 0
        np.testing.assert_allclose(sc.first_moment,
                                   COEFFS_2X2 / (2.0 * SQRT_PI), rtol=2e-5)

    def test_one_sided_tail_consistency(self):
        model = self.make()
        ys = np.array([0.0, 0.5, 2.0, 9.5, 10.0, 12.0])
        tails = np.asarray(kernel_tail_one_sided(model, 0, 0, ys))
        np.testing.assert_array_equal(
            tails, [kernel_tail_one_sided(model, 0, 0, y) for y in ys])
        assert isinstance(kernel_tail_one_sided(model, 0, 0, 0.5), float)
        assert np.all(np.diff(tails) <= 0.0)
        assert tails[0] == pytest.approx(0.5, rel=1e-6)
        assert tails[-2] == 0.0 and tails[-1] == 0.0
        assert kernel_tail_mass(model, 0, 0, 2.0) == pytest.approx(
            2.0 * tails[2], rel=1e-14)
        # partial segment: the interpolant's tail tracks the sampled shape
        # to interpolation fidelity (adaptive quadrature on the kinked
        # interpolant itself is less accurate than this closed form)
        ref = 0.5 * special.erfc(0.37)
        assert kernel_tail_one_sided(model, 0, 0, 0.37) == pytest.approx(
            ref, rel=1e-5)

    def test_structural_rejects(self):
        tau = np.linspace(0.0, 5.0, 100)
        good = np.exp(-tau * tau)[None, None, :]
        with pytest.raises(ValueError):
            TabulatedKernel(tau + 1.0, good)
        with pytest.raises(ValueError):
            TabulatedKernel(tau, -good)
        bad = np.concatenate([good, 2.0 * good], axis=0)
        bad = np.concatenate([bad, bad], axis=1)
        with pytest.raises(ValueError):
            TabulatedKernel(tau, bad)


class TestLoader:
    def test_roundtrip_with_symmetry_fill(self, tmp_path):
        path = write_kernel_table(tmp_path / "kern.csv",
                                  coeffs=COEFFS_2X2, tau_max=8.0, n=401)
        model = load_tabulated_kernel(path)
        assert model.n == 2
        assert kernel_eval(model, 1, 0, 0.5) == kernel_eval(model, 0, 1, 0.5)
        sc = kernel_scalars(model)
        np.testing.assert_allclose(sc.a, COEFFS_2X2, rtol=1e-4)

    def test_bad_headers_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        for text, reason in [
                ("x,k_1_1\n0,1\n1,0.5\n", "first column must be 'tau'"),
                ("tau,q_1_1\n0,1\n1,0.5\n", "bad kernel column name 'q_1_1'; expected k_i_j"),
                ("tau,k_a_1\n0,1\n1,0.5\n", "bad kernel column name 'k_a_1'; expected k_i_j"),
                ("tau,k_2_1\n0,1\n1,0.5\n", "kernel column 'k_2_1' must have i <= j"),
                ("tau,k_1_1,k_2_2\n0,1,1\n1,0.5,0.5\n",
                 "kernel table must list every pair i <= j exactly once")]:
            p.write_text(text)
            with pytest.raises(ValueError) as info:
                load_tabulated_kernel(p)
            assert str(info.value) == f"{p}: {reason}"

    def test_table_without_data_refused(self, tmp_path):
        # and a table whose rows are short of the header or not numbers, or
        # whose values the model refuses: each message names the file
        p = tmp_path / "bad.csv"
        for text, reason in [("tau,k_1_1\n", "no data rows"),
                             ("# header only\ntau,k_1_1,k_1_2,k_2_2\n\n", "no data rows"),
                             ("tau\n0\n1\n", "no k_i_j column"),
                             ("tau,k_1_1\n0,1\n1\n2,0.5\n",
                              "line 3: expected 2 numbers, got [1.0]"),
                             ("tau,k_1_1\n0,1\n1,\n", "line 3: expected 2 numbers, got [1.0, '']"),
                             ("# c\ntau,k_1_1\n\n0,1\n# c\n1,x\n",
                              "line 6: could not convert string to float: 'x'"),
                             ("tau,k_1_1\n0," + "1" * 131073 + "\n",
                              "line 2: field larger than field limit (131072)"),
                             # a quoted cell is converted once the table is read
                             ('tau,k_1_1\n0,1\n1,"x"\n', "could not convert string to float: 'x'"),
                             ('tau,k_1_1\n0,1\n1,0\n',
                              "tabulated kernel values must be finite and positive "
                              "on the support")]:
            p.write_text(text)
            with pytest.raises(ValueError, match=f"bad.csv: {re.escape(reason)}$"):
                load_tabulated_kernel(p)


def test_kernel_eval_index_range():
    model = GaussianKernel([[1.0]])
    with pytest.raises(ValueError):
        kernel_eval(model, 0, 1, 0.0)
    with pytest.raises(ValueError):
        kernel_eval(model, -1, 0, 0.0)


def test_tail_rejects_negative_radius():
    model = GaussianKernel([[1.0]])
    with pytest.raises(ValueError):
        kernel_tail_mass(model, 0, 0, -1.0)
    with pytest.raises(ValueError):
        kernel_tail_one_sided(model, 0, 0, -0.5)


class TestFactors:
    """kernel_factors: K_ij = mix_ij * unit for the shapes with one profile."""

    TAUS = np.array([0.0, 0.3, 1.7, 6.0])

    @pytest.mark.parametrize("model", [
        GaussianKernel(COEFFS_2X2),
        ExpMixtureKernel(COEFFS_2X2, s_lo=0.5, s_hi=math.inf, power=1.0, decay=2.0),
    ])
    def test_mix_times_unit_is_the_kernel(self, model):
        mix, unit = kernel_factors(model)
        np.testing.assert_array_equal(mix, COEFFS_2X2)
        assert unit.n == 1 and type(unit) is type(model)
        for i in range(2):
            for j in range(2):
                np.testing.assert_allclose(
                    mix[i, j] * kernel_eval(unit, 0, 0, self.TAUS),
                    kernel_eval(model, i, j, self.TAUS), rtol=1e-15)
                assert mix[i, j] * kernel_tail_one_sided(unit, 0, 0, 1.2) == pytest.approx(
                    kernel_tail_one_sided(model, i, j, 1.2), rel=1e-15)

    def test_mix_is_read_through_the_eval_accessor(self):
        class Skewed(GaussianKernel):
            def _c(self, i, j):
                return super()._c(i, j) + (0.1 if (i, j) == (1, 0) else 0.0)

        mix, _ = kernel_factors(Skewed(COEFFS_2X2))
        assert mix[1, 0] == COEFFS_2X2[1, 0] + 0.1 and mix[0, 1] == COEFFS_2X2[0, 1]

    def test_one_by_one_kernel_is_its_own_profile(self):
        for model in (GaussianKernel([[1.3]]), TestTabulated().make()):
            mix, unit = kernel_factors(model)
            np.testing.assert_array_equal(mix, [[1.0]])
            assert unit is model

    def test_multi_component_table_has_no_factors(self):
        assert kernel_factors(TestTabulated().make(COEFFS_2X2)) is None
