"""Weight models: excess evaluation, closed integrals, cell moments, tails."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from scipy import integrate, special

from convint import (
    ExpMixtureKernel,
    ExpSqrtWeight,
    GaussianKernel,
    RationalWeight,
    TabulatedExcessWeight,
    build_b_matrix,
    build_grid,
    excess_integral,
    excess_tail_mass,
    excess_weighted_integral,
    kernel_eval,
    kernel_scalars,
    load_tabulated_excess,
)
from conftest import write_excess_table
from oracles import (excess_integral_quadrature, rational_tail_quadrature,
                     weighted_integral_quadrature)

SQRT_PI = math.sqrt(math.pi)


class TestExpSqrt:
    def test_pointwise_and_evenness(self):
        w = ExpSqrtWeight(eps=0.5)
        assert w.excess(1.0) == pytest.approx(0.5 * math.exp(-1.0))
        t = np.array([0.25, 1.0, 7.0])
        np.testing.assert_array_equal(w.excess(t), w.excess(-t))
        with pytest.raises(ValueError):
            w.excess(0.0)

    def test_closed_integral(self):
        for eps in (0.02, 0.1, 1.3):
            w = ExpSqrtWeight(eps)
            assert excess_integral(w) == pytest.approx(
                2.0 * eps * SQRT_PI, rel=1e-15)
            assert excess_integral_quadrature(w) == pytest.approx(
                2.0 * eps * SQRT_PI, abs=1e-12)

    def test_tail_matches_quadrature(self):
        w = ExpSqrtWeight(eps=0.1)
        for t0 in (0.3, 1.0, 5.0):
            ref, _ = integrate.quad(lambda t: w.excess(t), t0, np.inf)
            assert excess_tail_mass(w, t0) == pytest.approx(2.0 * ref, rel=1e-10)
        assert excess_tail_mass(w, 0.0) == pytest.approx(
            excess_integral(w), rel=1e-12)

    def test_eps_zero_allowed(self):
        w = ExpSqrtWeight(0.0)
        assert excess_integral(w) == 0.0
        assert w.excess(1.0) == 0.0

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            ExpSqrtWeight(-0.1)
        with pytest.raises(ValueError):
            ExpSqrtWeight(float("nan"))


class TestRational:
    def test_pointwise_value(self):
        w = RationalWeight(eps=1.0, alpha=0.5)
        assert w.excess(1.0) == pytest.approx(0.5, rel=1e-15)

    def test_closed_integral(self):
        assert excess_integral(RationalWeight(1.0, 0.5)) == pytest.approx(
            math.pi * math.sqrt(2.0), rel=1e-14)
        for eps, alpha in ((0.05, 0.3), (0.08, 0.4), (1.0, 0.9)):
            w = RationalWeight(eps, alpha)
            closed = eps * math.pi / math.cos(math.pi * alpha / 2.0)
            assert excess_integral(w) == pytest.approx(closed, rel=1e-15)
            assert excess_integral_quadrature(w) == pytest.approx(
                closed, abs=1e-10)

    def test_tail_continuity_and_quadrature(self):
        w = RationalWeight(eps=0.08, alpha=0.4)
        # radii so small that 1/t0 squared (1e-160) or raised to 1 + alpha
        # (1e-300) overflows
        for t0 in (1e-300, 1e-160, 0.2, 0.999, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 4.0,
                   300.0):
            assert excess_tail_mass(w, t0) == pytest.approx(
                rational_tail_quadrature(w, t0), rel=1e-13)
        assert excess_tail_mass(w, 1e-300) == pytest.approx(excess_integral(w),
                                                           rel=1e-15)
        # the heavy tail is what drives large truncation radii
        assert excess_tail_mass(w, 1000.0) > 1e-6

    @pytest.mark.parametrize("alpha", [1e-9, 0.1, 0.4, 0.5, 0.7, 0.9, 0.99])
    def test_tail_against_hypergeometric_form(self, alpha):
        # scipy's hyp2f1 form of the tail: beyond t = 1, 2 eps x^q / q
        # 2F1(1, q/2; q/2 + 1; -x^2) with x = 1/t and q = 1 + alpha; below
        # it the total less the head, the same form with t and q = 1 - alpha.
        # That difference loses an ulp of the total, so the bound below 1 is
        # 32 ulp of the tail plus 32 of the total
        w = RationalWeight(eps=0.3, alpha=alpha)
        total = excess_integral(w)
        for t0 in np.geomspace(1e-300, 1e300, 601):
            t0 = float(t0)
            q = 1.0 + alpha if t0 >= 1.0 else 1.0 - alpha
            x = 1.0 / t0 if t0 >= 1.0 else t0
            form = 2.0 * w.eps * x ** q / q * special.hyp2f1(1.0, q / 2.0, q / 2.0 + 1.0, -x * x)
            want = form if t0 >= 1.0 else total - form
            got = excess_tail_mass(w, t0)
            if t0 >= 1.0:
                assert got == want or abs(got - want) <= 32 * np.spacing(want), t0
            else:
                assert abs(got - want) <= 32 * (np.spacing(want) + np.spacing(total)), t0

    @pytest.mark.parametrize("alpha, t0, want", [
        # 60-digit values rounded to double
        (0.99, 1e-300, 59.94246747212953),
        (0.99, 1e-05, 6.527411184131455),
        (0.99, 0.5, 0.4830487941896152),
        (0.99, 2.0, 0.06776684525562267),
        (0.999999, 1e-300, 414.322198692783),
        (0.999999, 1e-05, 6.907715761669017),
        (0.999999, 0.5, 0.4828313945480864),
        (0.999999, 2.0, 0.06694314718076343),
    ])
    def test_tail_near_alpha_one(self, alpha, t0, want):
        # the total (2 eps / (1 - alpha) here) less the head would cancel
        # nearly all its digits; the tail is summed from terms that do not
        assert excess_tail_mass(RationalWeight(eps=0.3, alpha=alpha), t0) == pytest.approx(
            want, rel=8 * 2.0 ** -52)

    @pytest.mark.parametrize("alpha", [0.9, 0.95, 0.99])
    def test_head_and_tail_add_to_the_total_near_alpha_one(self, alpha):
        # twice the graded rule's int_0^5 plus the tail beyond 5 give the
        # closed total; panels graded in u = t^(1 - alpha) instead of t span
        # decades of t near alpha = 1 and miss it by up to 2.7e-5 of it
        w = RationalWeight(0.1, alpha)
        total = w.excess_integral_closed()
        head = 2.0 * w.weighted_integral(np.ones_like, 5.0)
        assert abs(total - head - w.excess_tail(5.0)) <= 1e-13 * total

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            RationalWeight(0.1, 0.0)
        with pytest.raises(ValueError):
            RationalWeight(0.1, 1.0)


@pytest.mark.parametrize("w", [
    ExpSqrtWeight(0.1), ExpSqrtWeight(0.12),
    RationalWeight(0.08, 0.4), RationalWeight(0.07, 0.6)],
    ids=["exp_sqrt-0.1", "exp_sqrt-0.12", "rational-0.08-0.4", "rational-0.07-0.6"])
@pytest.mark.parametrize("kernel", [
    GaussianKernel([[1.0]]), ExpMixtureKernel([[1.0]], s_lo=1.0, s_hi=2.0)],
    ids=["gaussian", "exp_mixture"])
@pytest.mark.parametrize("r", [8.0, 32.0, 2048.0])
def test_weighted_integral_matches_quadrature(w, kernel, r):
    # the singular-budget reference against adaptive quadrature; the
    # exp_mixture kernel has a cusp at the singular point
    fn = lambda t: kernel_eval(kernel, 0, 0, t)
    assert excess_weighted_integral(w, fn, r) == pytest.approx(
        weighted_integral_quadrature(w, fn, r), rel=1e-13)


class TestCellMoments:
    @pytest.mark.parametrize("w", [ExpSqrtWeight(0.1),
                                   RationalWeight(0.08, 0.4)])
    def test_m0_matches_weighted_integral(self, w):
        for (a, b) in ((0.0, 0.5), (0.5, 1.25), (3.0, 7.0)):
            (m0,), (m1,) = w.cell_moments_batch(np.array([a, b]))
            ref0 = excess_weighted_integral(w, lambda t: np.ones_like(t), b) \
                - excess_weighted_integral(w, lambda t: np.ones_like(t), a)
            ref1 = excess_weighted_integral(w, lambda t: t, b) \
                - excess_weighted_integral(w, lambda t: t, a)
            # two independent quadratures (cell-moment rule vs the graded
            # reference rule) agree to their joint accuracy
            assert m0 == pytest.approx(ref0, rel=1e-7, abs=1e-14)
            assert m1 == pytest.approx(ref1, rel=1e-7, abs=1e-14)

    def test_grid_moments_sum_to_truncated_mass(self):
        # the cells cover [0, 20]; the weight is even, so the mass doubles
        w = ExpSqrtWeight(0.1)
        edges = np.linspace(0.0, 20.0, 2001)
        m0, _ = w.cell_moments_batch(edges)
        inside = excess_integral(w) - excess_tail_mass(w, 20.0)
        assert 2.0 * float(np.sum(m0)) == pytest.approx(inside, rel=1e-12)

    @pytest.mark.parametrize("w", [
        ExpSqrtWeight(0.1), RationalWeight(0.08, 0.4),
        TabulatedExcessWeight([0.5, 1.0, 2.0], [0.3, 0.2, 0.1], 0.5)],
        ids=["exp_sqrt", "rational", "tabulated_excess"])
    def test_batch_rejects_straddling_cells(self, w):
        with pytest.raises(ValueError):
            w.cell_moments_batch(np.array([-1.0, 1.0]))
        with pytest.raises(ValueError):
            w.cell_moments_batch(np.array([1.0, 0.5]))
        # cells lie on the nonnegative axis only
        with pytest.raises(ValueError, match="nonnegative"):
            w.cell_moments_batch(np.array([-2.0, -1.0]))


def tabulated_moments_by_cell(tab, edges):
    """Per-cell scalar reference for TabulatedExcessWeight.cell_moments_batch.

    Each cell of t >= 0 is clipped to the table and integrated in closed
    form against the linear model of s = (mu-1) t^gamma.
    """
    g = tab.gamma_exponent
    m0 = np.zeros(edges.size - 1)
    m1 = np.zeros(edges.size - 1)
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        lo, hi = max(a, tab.t[0]), min(b, tab.t[-1])
        if hi <= lo:
            continue
        s_lo, s_hi = tab._s_at(lo), tab._s_at(hi)
        slope = (s_hi - s_lo) / (hi - lo)
        i0, i1, i2 = ((hi ** q - lo ** q) / q for q in (1.0 - g, 2.0 - g, 3.0 - g))
        m0[k] = s_lo * i0 + slope * (i1 - lo * i0)
        m1[k] = s_lo * i1 + slope * (i2 - lo * i1)
    return m0, m1


class TestTabulatedExcess:
    def make(self, eps=0.08, alpha=0.4, t_max=60.0):
        # sample the rational excess so every result has a closed-form twin
        ref = RationalWeight(eps, alpha)
        t = np.concatenate([np.geomspace(1e-7, 1.0, 300),
                            np.geomspace(1.001, t_max, 500)])
        return ref, TabulatedExcessWeight(t, ref.excess(t), gamma=alpha)

    def test_even_evaluation_and_support(self):
        ref, tab = self.make()
        t = np.array([1e-6, 0.03, 0.8, 12.0])
        np.testing.assert_array_equal(tab.excess(t), tab.excess(-t))
        np.testing.assert_allclose(tab.excess(t), ref.excess(t), rtol=2e-4)
        assert tab.excess(61.0) == 0.0
        assert tab.excess(1e-9) == 0.0

    def test_closed_integral_vs_reference(self):
        ref, tab = self.make()
        inside = excess_integral(ref) - excess_tail_mass(ref, 60.0) \
            - 2.0 * ref.weighted_integral(lambda t: np.ones_like(t), 1e-7)
        assert excess_integral(tab) == pytest.approx(inside, rel=5e-5)

    def test_tail_walks_the_table(self):
        ref, tab = self.make()
        for t0 in (0.5, 3.0, 30.0):
            want = excess_tail_mass(ref, t0) - excess_tail_mass(ref, 60.0)
            assert excess_tail_mass(tab, t0) == pytest.approx(want, rel=1e-4)
        assert excess_tail_mass(tab, 60.0) == 0.0
        assert excess_tail_mass(tab, 1e-8) == excess_integral(tab)

    def test_weighted_integral_vs_reference(self):
        ref, tab = self.make()
        kern = GaussianKernel([[1.0]])
        fn = lambda t: np.asarray(kern.eval(0, 0, t))
        want = excess_weighted_integral(ref, fn, 8.0) \
            - excess_weighted_integral(ref, fn, 1e-7)
        assert excess_weighted_integral(tab, fn, 8.0) == pytest.approx(
            want, rel=1e-5)

    @pytest.mark.parametrize("t_max", [60.0, 59.99])
    def test_batch_matches_per_cell_reference(self, t_max):
        # the x >= 0 cells of a grid: the first clipped at t[0], cells wholly
        # past t[-1], and (t_max = 59.99) one cell clipped at t[-1]
        _, tab = self.make(t_max=t_max)
        edges = build_grid(64.0, 4096).half_nodes
        want0, want1 = tabulated_moments_by_cell(tab, edges)
        got0, got1 = tab.cell_moments_batch(edges)
        assert np.count_nonzero(want0 == 0.0) > 0
        np.testing.assert_array_equal(got0 == 0.0, want0 == 0.0)
        np.testing.assert_array_equal(got1 == 0.0, want1 == 0.0)
        np.testing.assert_allclose(got0, want0, rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(got1, want1, rtol=0.0,
                                   atol=1e-12 * np.max(np.abs(want1)))

    def test_structural_rejects(self):
        with pytest.raises(ValueError):
            TabulatedExcessWeight([-1.0, 0.5, 1.0], [0.1, 0.1, 0.1], 0.5)
        with pytest.raises(ValueError):
            TabulatedExcessWeight([0.0, 0.5, 1.0], [0.1, 0.1, 0.1], 0.5)
        with pytest.raises(ValueError):
            TabulatedExcessWeight([0.1, 0.5], [0.1, 0.1], 1.0)
        with pytest.raises(ValueError):
            TabulatedExcessWeight([0.1, 0.5], [0.1, -0.1], 0.5)
        # gamma = 0 admits a sample at the origin
        TabulatedExcessWeight([0.0, 0.5, 1.0], [0.2, 0.1, 0.05], 0.0)


class TestBMatrix:
    def test_columns_scale_by_excess_mass(self):
        scalars = kernel_scalars(GaussianKernel([[0.8, 0.3], [0.3, 1.1]]))
        weights = (ExpSqrtWeight(0.1), RationalWeight(0.05, 0.3))
        out = build_b_matrix(weights, scalars)
        assert out.w[0] == pytest.approx(0.2 * SQRT_PI, rel=1e-15)
        for j in range(2):
            np.testing.assert_allclose(out.b[:, j], scalars.sup[:, j] * out.w[j],
                                       rtol=1e-15)

    def test_count_mismatch(self):
        scalars = kernel_scalars(GaussianKernel([[1.0]]))
        with pytest.raises(ValueError):
            build_b_matrix((ExpSqrtWeight(0.1), ExpSqrtWeight(0.1)), scalars)


class TestLoader:
    def test_roundtrip(self, tmp_path):
        path = write_excess_table(tmp_path / "excess.csv", eps=0.1, gamma=0.5)
        tab = load_tabulated_excess(path)
        assert tab.gamma_exponent == 0.5
        ref = ExpSqrtWeight(0.1)
        assert tab.excess(0.7) == pytest.approx(ref.excess(0.7), rel=1e-4)

    def test_missing_gamma_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,mu_minus_1\n0.1,1.0\n1.0,0.1\n")
        with pytest.raises(ValueError):
            load_tabulated_excess(p)
        p.write_text("# gamma=0.5\nt,wrong\n0.1,1.0\n1.0,0.1\n")
        with pytest.raises(ValueError):
            load_tabulated_excess(p)
        # the metadata line must hold a number
        p.write_text("# gamma=abc\nt,mu_minus_1\n0.1,1.0\n1.0,0.1\n")
        with pytest.raises(ValueError,
                           match="bad.csv: line 1: could not convert string to float: 'abc'$"):
            load_tabulated_excess(p)

    def test_header_only_table_refused(self, tmp_path):
        # and a table whose rows are short of the header or not numbers
        p = tmp_path / "bad.csv"
        for rows, reason in [("", "no data rows"),
                             ("0.1,1.0\n0.2\n1.0,0.1\n", "line 4: expected 2 numbers, got [0.2]"),
                             ("0.1,1.0\n0.2,x\n",
                              "line 4: could not convert string to float: 'x'")]:
            p.write_text("# gamma=0.5\nt,mu_minus_1\n" + rows)
            with pytest.raises(ValueError, match=f"bad.csv: {re.escape(reason)}$"):
                load_tabulated_excess(p)


def test_excess_tail_mass_negative_start():
    with pytest.raises(ValueError):
        excess_tail_mass(ExpSqrtWeight(0.1), -1.0)
