"""Grid construction, quadrature tables, and the discrete operator.

The closed-form Gaussian/exp-sqrt instance supplies independent references:
kernel lag values, tail corrections, and excess masses all have elementary
expressions to compare the precomputed tables against.
"""

import numpy as np
import pytest
from conftest import coupled_models
from scipy.fft import idct
from scipy.special import erfc, gamma, gammainc

from convint.discretization import (
    FieldVector,
    apply_operator,
    build_grid,
    build_plan,
    choose_truncation,
    constant_field,
    estimate_quadrature_error,
)
from convint.errors import SolveError
from convint.kernels import GaussianKernel, kernel_eval
from convint.nonlinearities import PowerNonlin, PowerPhi, g_eval
from convint.problem import ProblemSpec
from convint.weights import ExpSqrtWeight, excess_integral, excess_tail_mass


def scalar_spec(eps: float = 0.1) -> ProblemSpec:
    return ProblemSpec(
        n=1,
        kernel=GaussianKernel([[1.0]]),
        weights=(ExpSqrtWeight(eps),),
        nonlins=(PowerNonlin(0.5, 1.0),),
        phi=PowerPhi(0.5),
    )


def mirror(half):
    """Full-grid rows of a field or plan table that holds the x >= 0 columns."""
    return np.concatenate([half[..., :0:-1], half], axis=-1)


def direct_apply(spec, plan, f):
    """Reference operator on the full grid by direct summation over the
    kernel lag table."""
    n_cells = plan.grid.n_cells
    lags = plan.grid.h * np.arange(-n_cells, n_cells + 1)
    v = np.vstack([g_eval(nl, row) for nl, row in zip(spec.nonlins, mirror(f.values))])
    v = v * mirror(plan.trapw + plan.omega)
    g_bound = [float(g_eval(nl, b)) for nl, b in zip(spec.nonlins, f.boundary)]
    out = np.zeros_like(v)
    for i in range(spec.n):
        for j in range(spec.n):
            row = kernel_eval(spec.kernel, i, j, lags)
            out[i] += np.convolve(v[j], row)[n_cells : 2 * n_cells + 1]
            out[i] += g_bound[j] * mirror(plan.tail_coeff[i, j])
    return out


class TestGrid:
    def test_nodes_bitwise_symmetric(self):
        grid = build_grid(6.4, 128)
        # exact cancellation, not approximate: each node has a stored mirror
        assert np.all(grid.nodes + grid.nodes[::-1] == 0.0)
        assert grid.nodes[64] == 0.0

    def test_shape_and_spacing(self):
        grid = build_grid(6.4, 128)
        assert grid.nodes.shape == (129,)
        assert grid.nodes[0] == -6.4 and grid.nodes[-1] == 6.4
        assert np.array_equal(grid.half_nodes, grid.nodes[64:])
        assert grid.h == pytest.approx(2.0 * 6.4 / 128, rel=1e-15)
        assert np.allclose(np.diff(grid.nodes), grid.h, rtol=0.0, atol=1e-14)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            build_grid(1.0, 3)
        with pytest.raises(ValueError):
            build_grid(1.0, 0)
        with pytest.raises(ValueError):
            build_grid(0.0, 8)
        with pytest.raises(ValueError):
            build_grid(-2.0, 8)


class TestNodeWeights:
    def test_end_corrected_trapezoid(self):
        grid = build_grid(8.0, 64)
        plan = build_plan(scalar_spec(), grid)
        assert plan.trapw.shape == (grid.n_cells // 2 + 1,)
        trapw = mirror(plan.trapw)
        h = grid.h
        end = h * np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
        assert np.allclose(trapw[:3], end, rtol=1e-15)
        assert np.allclose(trapw[-3:], end[::-1], rtol=1e-15)
        assert np.all(trapw[3:-3] == h)

    def test_positive_and_mass_preserving(self):
        grid = build_grid(8.0, 64)
        plan = build_plan(scalar_spec(), grid)
        assert np.all(plan.trapw > 0.0)
        assert mirror(plan.trapw).sum() == pytest.approx(2.0 * grid.r, rel=1e-14)

    def test_short_grid_falls_back_to_plain_trapezoid(self):
        grid = build_grid(1.0, 4)
        plan = build_plan(scalar_spec(), grid)
        h = grid.h
        assert np.allclose(mirror(plan.trapw), [h / 2, h, h, h, h / 2], rtol=1e-15)
        assert mirror(plan.trapw).sum() == pytest.approx(2.0, rel=1e-15)


@pytest.fixture(scope="module")
def small():
    spec = scalar_spec()
    grid = build_grid(8.0, 64)
    return spec, grid, build_plan(spec, grid)


class TestPlanTables:
    def test_kernel_lag_table_even_and_exact(self, small):
        spec, grid, plan = small
        # 64 cells: 2 * 64 is a fast length, so the one-sided table of lags
        # 0..2R is not padded
        assert plan.kernel_hat.shape == (1, 1, grid.n_cells + 1)
        row = idct(plan.kernel_hat[0, 0], type=1)
        lags = grid.h * np.arange(grid.n_cells + 1)
        expect = np.exp(-(lags**2)) / np.sqrt(np.pi)
        assert np.max(np.abs(row - expect)) <= 1e-15

    def test_singular_weights_nonnegative_and_mass_exact(self, small):
        spec, grid, plan = small
        assert np.all(plan.omega >= 0.0)
        w = spec.weights[0]
        inside = excess_integral(w) - excess_tail_mass(w, grid.r)
        assert mirror(plan.omega[0]).sum() == pytest.approx(inside, rel=1e-12)

    def test_singular_weights_preserve_odd_moment(self, small):
        spec, grid, plan = small
        # the per-cell linear model reproduces first moments, so the x >= 0
        # weights give int_0^R t (mu - 1) dt = eps gamma(3/2, R) exactly
        # (the x = 0 weight, which also holds the cell [-h, 0], has x = 0)
        eps = spec.weights[0].eps
        expect = eps * gamma(1.5) * gammainc(1.5, grid.r)
        assert plan.omega[0] @ grid.half_nodes == pytest.approx(expect, rel=1e-12)

    def test_tail_correction_matches_closed_form(self, small):
        spec, grid, plan = small
        coeff = plan.tail_coeff[0, 0]
        x = grid.half_nodes
        expect = 0.5 * (erfc(grid.r - x) + erfc(grid.r + x))
        assert np.allclose(coeff, expect, rtol=1e-13, atol=1e-300)


class TestApplyOperator:
    def test_constant_eigen_field_is_near_fixed(self, flagship):
        out = apply_operator(
            flagship.plan,
            constant_field(flagship.grid, flagship.spectral.eta),
            flagship.validation.spec.nonlins,
            include_singular=False,
        )
        gap = np.max(np.abs(out.values - flagship.spectral.eta[:, None]))
        assert gap <= 1e-8

    def test_fft_and_direct_agree(self, flagship):
        x = flagship.grid.half_nodes
        eta = flagship.spectral.eta
        values = eta[:, None] * (1.0 + 0.3 * np.exp(-(x**2)))[None, :]
        f = FieldVector(grid=flagship.grid, values=values, boundary=eta.copy())
        fast = apply_operator(flagship.plan, f, flagship.validation.spec.nonlins)
        slow = direct_apply(flagship.validation.spec, flagship.plan, f)
        assert np.max(np.abs(mirror(fast.values) - slow)) <= 1e-12

    @pytest.mark.parametrize("n_cells", [64, 98])
    def test_coupled_pair_matches_direct_sum(self, n_cells):
        # distinct kernel coefficients, weights, maps and field rows with
        # off-center bumps, so mixed-up components or a shifted window show;
        # at 98 cells the transforms run zero-padded to 2 * 100
        models = coupled_models()
        spec = ProblemSpec(n=2, kernel=models["kernel"], weights=models["weights"],
                           nonlins=models["make_nonlins"]([1.0, 0.8]), phi=models["phi"])
        grid = build_grid(8.0, n_cells)
        plan = build_plan(spec, grid)
        x = grid.half_nodes
        values = np.vstack([1.0 + 0.3 * np.exp(-((x - 1.0) ** 2)),
                            0.8 + 0.5 * np.exp(-((x - 2.0) ** 2) / 2.0)])
        f = FieldVector(grid=grid, values=values, boundary=np.array([1.0, 0.8]))
        fast = apply_operator(plan, f, spec.nonlins)
        assert np.max(np.abs(mirror(fast.values) - direct_apply(spec, plan, f))) <= 1e-12

    def test_operator_is_monotone_between_constant_fields(self, flagship):
        lo = apply_operator(
            flagship.plan,
            constant_field(flagship.grid, flagship.spectral.eta),
            flagship.validation.spec.nonlins,
        )
        hi = apply_operator(
            flagship.plan,
            constant_field(flagship.grid, flagship.spectral.xi, boundary=flagship.spectral.eta),
            flagship.validation.spec.nonlins,
        )
        assert np.all(hi.values - lo.values >= -1e-15)

    def test_mismatched_inputs_rejected(self):
        spec = scalar_spec()
        grid = build_grid(8.0, 64)
        plan = build_plan(spec, grid)
        other = build_grid(8.0, 32)
        with pytest.raises(ValueError, match="grid"):
            apply_operator(plan, constant_field(other, [1.0]), spec.nonlins)
        two = FieldVector(grid=grid, values=np.ones((2, 33)), boundary=np.ones(2))
        with pytest.raises(ValueError, match="component count"):
            apply_operator(plan, two, spec.nonlins * 2)
        # a field stores the x >= 0 nodes only, not the full grid
        with pytest.raises(ValueError, match="x >= 0"):
            FieldVector(grid=grid, values=np.ones((1, 65)), boundary=np.ones(1))


class TestTruncation:
    def test_reference_instance_radius(self):
        spec = scalar_spec()
        r = choose_truncation(spec.kernel, spec.weights, [1.0], 1e-8, g_sup=1.2)
        assert r == 32.0
        # the weight tail is what forces the last doubling: too heavy at 8,
        # small enough at 16 (criteria are judged at half the candidate R)
        w = spec.weights[0]
        assert excess_tail_mass(w, 8.0) > 1e-8
        assert excess_tail_mass(w, 16.0) <= 1e-8

    def test_undecaying_tail_exhausts_doublings(self):
        class StickyWeight:
            def excess_tail(self, t_from):
                return 0.1

        spec = scalar_spec()
        with pytest.raises(SolveError, match="decay too slowly"):
            choose_truncation(
                spec.kernel, (StickyWeight(),), [1.0], 1e-8, g_sup=1.0, max_doublings=6
            )

    def test_bad_inputs_rejected(self):
        spec = scalar_spec()
        with pytest.raises(ValueError):
            choose_truncation(spec.kernel, spec.weights, [1.0], 0.0, g_sup=1.0)
        with pytest.raises(ValueError):
            choose_truncation(spec.kernel, spec.weights, [1.0], 1e-8, g_sup=0.0)


class TestQuadratureBudget:
    def test_components_nonnegative_and_total_is_sum(self, flagship):
        q = flagship.quad
        assert q.regular >= 0.0 and q.singular >= 0.0 and q.dropped_tail >= 0.0
        assert q.total == q.regular + q.singular + q.dropped_tail

    def test_reference_instance_budget(self, flagship):
        q = flagship.quad
        assert q.regular <= 1e-9
        assert q.singular <= 5e-6
        assert q.dropped_tail <= 1e-8
