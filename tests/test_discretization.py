"""Grid construction, quadrature tables, and the discrete operator.

The closed-form Gaussian/exp-sqrt instance supplies independent references:
kernel lag values, tail corrections, and excess masses all have elementary
expressions to compare the precomputed tables against.
"""

import dataclasses

import numpy as np
import pytest
from conftest import coupled_models
from scipy.fft import irfft
from scipy.fft import next_fast_len as scipy_next_fast_len
from scipy.special import erfc, gamma, gammainc

from convint import discretization
from convint.discretization import (
    apply_operator,
    build_grid,
    build_plan,
    choose_truncation,
    estimate_quadrature_error,
    next_fast_len,
)
from convint.errors import SolveError
from convint.kernels import (GaussianKernel, TabulatedKernel, kernel_eval,
                             kernel_tail_one_sided)
from convint.nonlinearities import PowerNonlin, PowerPhi, g_eval
from convint.problem import ProblemSpec
from convint.weights import ExpSqrtWeight, excess_integral, excess_tail_mass


def scalar_spec(eps: float = 0.1) -> ProblemSpec:
    return ProblemSpec(
        kernel=GaussianKernel([[1.0]]),
        weights=(ExpSqrtWeight(eps),),
        nonlins=(PowerNonlin(0.5, 1.0),),
        phi=PowerPhi(0.5),
    )


def mirror(half):
    """Full-grid rows of a field or plan table that holds the x >= 0 columns."""
    return np.concatenate([half[..., :0:-1], half], axis=-1)


def constant(grid, levels):
    """The field that holds each component at its level."""
    return np.repeat(np.asarray(levels, dtype=float)[:, None], grid.half_nodes.size, axis=1)


def direct_apply(spec, plan, f, boundary):
    """Reference operator on the full grid by direct summation over the
    kernel lag table, with the tail from the kernel's own one-sided tails
    at the continuation values boundary."""
    grid = plan.grid
    n_cells = grid.n_cells
    lags = grid.h * np.arange(-n_cells, n_cells + 1)
    v = np.vstack([g_eval(nl, row) for nl, row in zip(spec.nonlins, mirror(f))])
    v = v * mirror(plan.trapw + plan.omega)
    g_bound = [float(g_eval(nl, b)) for nl, b in zip(spec.nonlins, boundary)]
    out = np.zeros_like(v)
    for i in range(spec.n):
        for j in range(spec.n):
            row = kernel_eval(spec.kernel, i, j, lags)
            out[i] += np.convolve(v[j], row)[n_cells : 2 * n_cells + 1]
            tail = (kernel_tail_one_sided(spec.kernel, i, j, grid.r - grid.nodes)
                    + kernel_tail_one_sided(spec.kernel, i, j, grid.r + grid.nodes))
            out[i] += g_bound[j] * tail
    return out


def bumpy_field(grid, n):
    """Rows with distinct off-center bumps, so mixed-up components or a
    shifted window show."""
    x = grid.half_nodes
    rows = [1.0 + 0.3 * np.exp(-((x - 1.0) ** 2)),
            0.8 + 0.5 * np.exp(-((x - 2.0) ** 2) / 2.0)]
    return np.vstack(rows[:n])


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
        plan = build_plan(scalar_spec(), grid, [1.0])
        assert plan.trapw.shape == (grid.n_cells // 2 + 1,)
        trapw = mirror(plan.trapw)
        h = grid.h
        end = h * np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
        assert np.allclose(trapw[:3], end, rtol=1e-15)
        assert np.allclose(trapw[-3:], end[::-1], rtol=1e-15)
        assert np.all(trapw[3:-3] == h)

    def test_positive_and_mass_preserving(self):
        grid = build_grid(8.0, 64)
        plan = build_plan(scalar_spec(), grid, [1.0])
        assert np.all(plan.trapw > 0.0)
        assert mirror(plan.trapw).sum() == pytest.approx(2.0 * grid.r, rel=1e-14)

    def test_short_grid_falls_back_to_plain_trapezoid(self):
        grid = build_grid(1.0, 4)
        plan = build_plan(scalar_spec(), grid, [1.0])
        h = grid.h
        assert np.allclose(mirror(plan.trapw), [h / 2, h, h, h, h / 2], rtol=1e-15)
        assert mirror(plan.trapw).sum() == pytest.approx(2.0, rel=1e-15)


@pytest.fixture(scope="module")
def small():
    spec = scalar_spec()
    grid = build_grid(8.0, 64)
    return spec, grid, build_plan(spec, grid, [1.3])


class TestPlanTables:
    def test_kernel_lag_table_even_and_exact(self, small):
        spec, grid, plan = small
        # 64 cells is a fast length, so the transforms are not padded; the
        # Toeplitz row undone from the spectra is even about residue 0 and
        # the Hankel row wraps lag 2R to residue 0, so together they give the
        # one-sided table of lags 0..2R
        # a 1 x 1 kernel is its own profile: mix is [[1]] and the plan
        # holds the one spectrum row of the kernel itself
        p = grid.n_cells
        assert plan.fft_len == p
        np.testing.assert_array_equal(plan.mix, [[1.0]])
        assert plan.toeplitz.shape == plan.hankel.shape == (p // 2 + 1,)
        toeplitz, hankel = irfft(plan.toeplitz, p), irfft(plan.hankel, p)
        assert np.max(np.abs(toeplitz[1:] - toeplitz[:0:-1])) <= 1e-15
        row = np.concatenate([toeplitz[:p // 2 + 1], hankel[p // 2 + 1:], hankel[:1]])
        lags = grid.h * np.arange(grid.n_cells + 1)
        expect = np.exp(-(lags**2)) / np.sqrt(np.pi)
        assert np.max(np.abs(row - expect)) <= 1e-15

    @pytest.mark.parametrize("n_cells, fft_len", [(14, 15), (22, 24), (64, 64)])
    def test_spectra_recover_kernel_lag_table(self, n_cells, fft_len):
        # the Toeplitz spectrum T and the Hankel spectrum H, undone, give
        # back lags 0..2R: T at the residues of lags -m..m, H at those of
        # lags 1..2m
        # (R = 1 keeps the kernel at lag 2R, 0.01, well above roundoff)
        grid = build_grid(1.0, n_cells)
        plan = build_plan(scalar_spec(), grid, [1.0])
        assert plan.fft_len == fft_len
        m, p = n_cells // 2, fft_len
        assert plan.toeplitz.shape == plan.hankel.shape == (p // 2 + 1,)
        assert np.ndim(plan.center_fix) == 0
        toeplitz, hankel = irfft(plan.toeplitz, p), irfft(plan.hankel, p)
        expect = np.exp(-((grid.h * np.arange(n_cells + 1)) ** 2)) / np.sqrt(np.pi)
        residues = np.arange(n_cells + 1) % p
        assert np.max(np.abs(toeplitz[residues[:m + 1]] - expect[:m + 1])) <= 1e-15
        assert np.max(np.abs(toeplitz[-residues[:m + 1]] - expect[:m + 1])) <= 1e-15
        assert np.max(np.abs(hankel[residues[1:]] - expect[1:])) <= 1e-15
        # every other residue is zero padding; at p = 2m lag 2m holds residue 0
        free = np.ones(p, dtype=bool)
        free[residues[:m + 1]] = free[-residues[:m + 1]] = False
        assert np.max(np.abs(toeplitz[free]), initial=0.0) <= 1e-15
        free = np.ones(p, dtype=bool)
        free[residues[1:]] = False
        assert np.max(np.abs(hankel[free]), initial=0.0) <= 1e-15
        wrapped = expect[-1] if p == n_cells else 0.0
        assert plan.center_fix == pytest.approx(expect[0] - wrapped, abs=1e-15)

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

    def test_nan_tables_are_rejected(self):
        # a NaN fails every comparison, so a guard written as min < bound
        # would pass one cell moment's or tail mass's NaN into the plan
        class NanMomentWeight(ExpSqrtWeight):
            def cell_moments_batch(self, edges):
                m0, m1 = super().cell_moments_batch(edges)
                m0[3] = np.nan
                return m0, m1

        class NanTailGaussian(GaussianKernel):
            def one_sided_tail(self, i, j, y):
                out = super().one_sided_tail(i, j, y)
                out[3] = np.nan
                return out

        grid = build_grid(8.0, 64)
        for change, what in (({"weights": (NanMomentWeight(0.1),)}, "singular quadrature weight"),
                             ({"kernel": NanTailGaussian([[1.0]])}, "tail correction")):
            with pytest.raises(SolveError, match=f"negative {what}"):
                build_plan(dataclasses.replace(scalar_spec(), **change), grid, [1.0])

    def test_tail_correction_matches_closed_form(self, small):
        # the plan folds in G(1.3) = 1.3^(1/2) of the continuation value 1.3
        spec, grid, plan = small
        x = grid.half_nodes
        expect = np.sqrt(1.3) * 0.5 * (erfc(grid.r - x) + erfc(grid.r + x))
        assert plan.tail.shape == (1, x.size)
        assert np.allclose(plan.tail[0], expect, rtol=1e-13, atol=1e-300)


# (R, n_cells) grids on which the Gaussian's lag table ends inside the grid
WIDE_GRIDS = [pytest.param(64.0, 256, id="r64-256"), pytest.param(64.0, 130, id="r64-130")]
WIDE_AND_NARROW_GRIDS = [pytest.param(1.5, n, id=str(n)) for n in (14, 22, 64, 100)] + WIDE_GRIDS


class TestApplyOperator:
    def test_constant_eigen_field_is_near_fixed(self, flagship):
        out = apply_operator(
            flagship.plan,
            constant(flagship.plan.grid, flagship.validation.eta),
            flagship.validation.spec.nonlins,
            include_singular=False,
        )
        gap = np.max(np.abs(out - flagship.validation.eta[:, None]))
        assert gap <= 1e-8

    def test_fft_and_direct_agree(self, flagship):
        x = flagship.plan.grid.half_nodes
        eta = flagship.validation.eta
        f = eta[:, None] * (1.0 + 0.3 * np.exp(-(x**2)))[None, :]
        fast = apply_operator(flagship.plan, f, flagship.validation.spec.nonlins)
        slow = direct_apply(flagship.validation.spec, flagship.plan, f, eta)
        assert np.max(np.abs(mirror(fast) - slow)) <= 1e-12

    # fft_len 15 (odd, above n_cells), 24 (even, above n_cells), 64 and 100
    # (equal to n_cells: lag 2m wraps to residue 0 and x = 0 takes the fix);
    # at R = 1.5 the kernel at lag 2R is 7e-5, so every lag and the tail show.
    # At R = 64 the kernel ends inside the grid and the compact layout runs,
    # at 256 cells zero-padded (m + 2L + 1 = 237, fft_len 240) and at 130
    # cells unpadded (m + 2L + 1 = fft_len = 120)
    @pytest.mark.parametrize("r, n_cells", WIDE_AND_NARROW_GRIDS)
    def test_scalar_matches_direct_sum(self, r, n_cells):
        spec = scalar_spec()
        grid = build_grid(r, n_cells)
        plan = build_plan(spec, grid, [1.3])
        assert (plan.hankel is None) == (r == 64.0)
        f = bumpy_field(grid, 1)
        fast = apply_operator(plan, f, spec.nonlins)
        slow = direct_apply(spec, plan, f, [1.3])
        assert np.max(np.abs(mirror(fast) - slow)) <= 1e-12

    @pytest.mark.parametrize("r, n_cells", [
        pytest.param(1.5, n, id=str(n)) for n in (14, 22, 64, 98)] + WIDE_GRIDS)
    def test_coupled_pair_matches_direct_sum(self, r, n_cells):
        # distinct kernel coefficients, weights, maps and field rows; at 14
        # and 22 cells the transforms run zero-padded to 15 and 24, at 98 to
        # 100, and at 64 cells lag 2m wraps to residue 0; at R = 64 the
        # compact layout runs, as for the scalar kernel
        models = coupled_models()
        spec = ProblemSpec(kernel=models["kernel"], weights=models["weights"],
                           nonlins=models["make_nonlins"]([1.0, 0.8]), phi=models["phi"])
        grid = build_grid(r, n_cells)
        plan = build_plan(spec, grid, [1.0, 0.8])
        assert (plan.hankel is None) == (r == 64.0)
        f = bumpy_field(grid, 2)
        fast = apply_operator(plan, f, spec.nonlins)
        slow = direct_apply(spec, plan, f, [1.0, 0.8])
        assert np.max(np.abs(mirror(fast) - slow)) <= 1e-12

    def test_operator_is_monotone_between_constant_fields(self, flagship):
        lo = apply_operator(
            flagship.plan,
            constant(flagship.plan.grid, flagship.validation.eta),
            flagship.validation.spec.nonlins,
        )
        hi = apply_operator(
            flagship.plan,
            constant(flagship.plan.grid, flagship.validation.xi),
            flagship.validation.spec.nonlins,
        )
        assert np.all(hi - lo >= -1e-15)

    def test_mismatched_inputs_rejected(self):
        spec = scalar_spec()
        grid = build_grid(8.0, 64)
        plan = build_plan(spec, grid, [1.0])
        # a field on another grid, with another component count, on the
        # full grid instead of the x >= 0 nodes only, or not a 2-d array
        for shape in ((1, 17), (2, 33), (1, 65), (33,)):
            with pytest.raises(ValueError, match=r"shape .* is not the plan's \(1, 33\)"):
                apply_operator(plan, np.ones(shape), spec.nonlins * 2)
        with pytest.raises(ValueError, match="boundary"):
            build_plan(spec, grid, [1.0, 1.0])


class NearlySymmetricGaussian(GaussianKernel):
    """The coupled pair's kernel with coefficient (1, 0) one ulp above
    (0, 1): not index-symmetric, so the plan may not share their rows."""

    def _c(self, i, j):
        c = super()._c(i, j)
        return float(np.nextafter(c, np.inf)) if (i, j) == (1, 0) else c


class AsymmetricGaussian(GaussianKernel):
    """The coupled pair's kernel with coefficient (1, 0) raised by 0.15, so
    a plan that mixed the rows by mix.T instead of mix would be off by far
    more than roundoff."""

    def _c(self, i, j):
        return super()._c(i, j) + (0.15 if (i, j) == (1, 0) else 0.0)


def two_tables(tau):
    """Index-symmetric 2 x 2 tables whose entries are not multiples of one
    profile: a Gaussian, an exponential and a broad bump."""
    k00 = np.exp(-tau * tau) / np.sqrt(np.pi)
    k01 = 0.3 * np.exp(-2.0 * tau)
    k11 = 0.4 / (1.0 + tau * tau) ** 2
    return np.array([[k00, k01], [k01, k11]])


def pair_spec(kernel):
    """The coupled pair's weights, maps and scaling with the given kernel."""
    models = coupled_models()
    return ProblemSpec(kernel=kernel, weights=models["weights"],
                       nonlins=models["make_nonlins"]([1.0, 0.8]), phi=models["phi"])


def tabulated_pair():
    tau = np.linspace(0.0, 4.0, 801)
    return TabulatedKernel(tau, two_tables(tau))


class TestPlanSpectra:
    @staticmethod
    def coupled_plan(kernel, n_cells, r=1.5):
        spec = pair_spec(kernel)
        grid = build_grid(r, n_cells)
        return spec, build_plan(spec, grid, [1.0, 0.8])

    # (spec, R, n_cells, factored, compact): each of the four plan kinds
    @pytest.mark.parametrize("spec, r, n_cells, factored, compact", [
        pytest.param(scalar_spec(), 8.0, 64, True, False, id="factored-folded"),
        pytest.param(scalar_spec(), 64.0, 256, True, True, id="factored-compact"),
        pytest.param(pair_spec(tabulated_pair()), 1.5, 22, False, False, id="per-entry-folded"),
        pytest.param(pair_spec(tabulated_pair()), 16.0, 256, False, True,
                     id="per-entry-compact"),
    ])
    def test_every_table_owns_its_memory(self, spec, r, n_cells, factored, compact):
        # a view of a larger array (rfft(...).real is one half of a complex
        # one) keeps all of it alive, and a plan's nbytes would not count it
        plan = build_plan(spec, build_grid(r, n_cells), [1.0] * spec.n)
        assert (plan.mix is not None) == factored and (plan.hankel is None) == compact
        tables = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
        tables = {name: t for name, t in tables.items() if isinstance(t, np.ndarray)}
        assert {"toeplitz", "trapw", "omega", "tail"} <= set(tables)
        assert ("hankel" in tables) == (not compact)
        for name, table in tables.items():
            assert table.base is None or table.base.nbytes == table.nbytes, name

    @pytest.mark.parametrize("kernel, rows", [
        pytest.param(coupled_models()["kernel"], 1, id="factored"),
        pytest.param(tabulated_pair(), 4, id="per-entry"),
    ])
    def test_each_lag_row_is_evaluated_once(self, monkeypatch, kernel, rows):
        # the reach and the spectra come from the same evaluation of each row
        evaluated = []

        def counted(model, i, j, lags):
            evaluated.append((i, j))
            return kernel_eval(model, i, j, lags)

        monkeypatch.setattr(discretization, "kernel_eval", counted)
        self.coupled_plan(kernel, 64)
        assert len(evaluated) == len(set(evaluated)) == rows

    @pytest.mark.parametrize("n_cells", [22, 64])
    def test_last_bit_asymmetry_gets_its_own_rows(self, n_cells):
        base = coupled_models()["kernel"]
        near = NearlySymmetricGaussian(base.coeffs)
        up = base.coeffs.copy()
        up[0, 1] = up[1, 0] = np.nextafter(up[1, 0], np.inf)
        lags = np.linspace(0.0, 3.0, n_cells + 1)
        assert not np.array_equal(kernel_eval(near, 1, 0, lags), kernel_eval(near, 0, 1, lags))

        _, plan = self.coupled_plan(near, n_cells)
        _, plan_base = self.coupled_plan(base, n_cells)
        _, plan_up = self.coupled_plan(GaussianKernel(up), n_cells)
        # entry (0, 1) of the mix is the base kernel's, entry (1, 0) the
        # raised kernel's; all three share the one profile spectrum
        assert plan.mix[0, 1] == plan_base.mix[0, 1]
        assert plan.mix[1, 0] == plan_up.mix[1, 0]
        assert plan.mix[1, 0] != plan.mix[0, 1]
        for name in ("toeplitz", "hankel", "center_fix"):
            np.testing.assert_array_equal(getattr(plan, name), getattr(plan_base, name))

    @pytest.mark.parametrize("n_cells", [22, 64])
    def test_last_bit_asymmetry_matches_direct_sum(self, n_cells):
        spec, plan = self.coupled_plan(NearlySymmetricGaussian(coupled_models()["kernel"].coeffs),
                                       n_cells)
        f = bumpy_field(plan.grid, 2)
        fast = apply_operator(plan, f, spec.nonlins)
        slow = direct_apply(spec, plan, f, [1.0, 0.8])
        assert np.max(np.abs(mirror(fast) - slow)) <= 1e-12

    @pytest.mark.parametrize("n_cells", [22, 64])
    def test_asymmetric_mix_matches_direct_sum(self, n_cells):
        spec, plan = self.coupled_plan(AsymmetricGaussian(coupled_models()["kernel"].coeffs),
                                       n_cells)
        assert plan.mix[1, 0] - plan.mix[0, 1] == pytest.approx(0.15, rel=1e-12)
        f = bumpy_field(plan.grid, 2)
        fast = apply_operator(plan, f, spec.nonlins)
        slow = direct_apply(spec, plan, f, [1.0, 0.8])
        assert np.max(np.abs(mirror(fast) - slow)) <= 1e-12

    @pytest.mark.parametrize("r, n_cells", [
        pytest.param(1.5, n, id=str(n)) for n in (14, 22, 64, 98)] + [
        pytest.param(16.0, n, id=f"r16-{n}") for n in (250, 256)])
    def test_tabulated_pair_keeps_per_entry_spectra(self, r, n_cells):
        # entries that share no profile: the plan holds one spectrum row per
        # entry and contracts over j, and still matches direct summation; at
        # R = 16 the tables (tau <= 4) end inside the grid, so the compact
        # layout runs with L the largest reach over the entries
        spec, plan = self.coupled_plan(tabulated_pair(), n_cells, r)
        assert plan.mix is None
        assert plan.toeplitz.shape == (2, 2, plan.fft_len // 2 + 1)
        assert (plan.hankel is None) == (r == 16.0)
        if plan.hankel is not None:
            assert plan.hankel.shape == plan.toeplitz.shape
            assert plan.center_fix.shape == (2, 2)
        f = bumpy_field(plan.grid, 2)
        fast = apply_operator(plan, f, spec.nonlins)
        slow = direct_apply(spec, plan, f, [1.0, 0.8])
        assert np.max(np.abs(mirror(fast) - slow)) <= 1e-12


def ramp_spec():
    """A kernel that ends inside the grid well above roundoff: the 1 x 1
    table falls linearly from 1 at tau = 0 to 0.2 at tau = 3 and is zero
    beyond."""
    return dataclasses.replace(
        scalar_spec(), kernel=TabulatedKernel([0.0, 3.0], [[[1.0, 0.2]]]))


def lag_table_reach(spec, grid):
    """Largest index over the entries' lag tables (lags 0..2R) that holds a
    nonzero value."""
    lags = grid.h * np.arange(grid.n_cells + 1)
    return max(int(np.flatnonzero(kernel_eval(spec.kernel, i, j, lags))[-1])
               for i in range(spec.n) for j in range(spec.n))


class TestCompactLayout:
    # (spec, R, n_cells, fft_len, compact): the compact layout where
    # next_fast_len(m + 2L + 1) is the shorter length, the folded one
    # (next_fast_len(n_cells)) where it is not
    @pytest.mark.parametrize("spec, r, n_cells, fft_len, compact", [
        pytest.param(scalar_spec(), 64.0, 256, 240, True, id="gauss-r64-256"),
        pytest.param(scalar_spec(), 64.0, 130, 120, True, id="gauss-r64-130"),
        pytest.param(scalar_spec(), 8.0, 64, 64, False, id="gauss-r8-64"),
        pytest.param(scalar_spec(), 1.0, 22, 24, False, id="gauss-r1-22"),
        pytest.param(ramp_spec(), 8.0, 22, 20, True, id="ramp-r8-22"),
        pytest.param(ramp_spec(), 8.0, 32, 30, True, id="ramp-r8-32"),
        pytest.param(ramp_spec(), 2.0, 32, 32, False, id="ramp-r2-32"),
        pytest.param(pair_spec(tabulated_pair()), 16.0, 256, 200, True, id="pair-r16-256"),
    ])
    def test_fft_len_follows_the_kernel_reach(self, spec, r, n_cells, fft_len, compact):
        grid = build_grid(r, n_cells)
        plan = build_plan(spec, grid, [1.0] * spec.n)
        reach = lag_table_reach(spec, grid)
        assert plan.reach == reach
        folded, tight = next_fast_len(n_cells), next_fast_len(n_cells // 2 + 2 * reach + 1)
        assert plan.fft_len == fft_len == (tight if tight < folded else folded)
        assert (plan.hankel is None) == (plan.center_fix is None) == compact == (tight < folded)

    def test_small_and_flagship_keep_the_folded_layout(self, small, flagship):
        assert small[2].fft_len == 64 and small[2].hankel is not None
        assert flagship.plan.fft_len == 8192 and flagship.plan.hankel is not None

    @pytest.mark.parametrize("spec, r, n_cells", [
        pytest.param(scalar_spec(), 64.0, 256, id="gauss-r64-256"),
        pytest.param(ramp_spec(), 8.0, 22, id="ramp-r8-22"),
        pytest.param(ramp_spec(), 8.0, 32, id="ramp-r8-32"),
    ])
    def test_spectrum_recovers_kernel_lag_table(self, spec, r, n_cells):
        # the one real spectrum undone gives lags 0..L at residues 0..L and
        # their mirrors at p - L..p - 1; every other residue is zero padding
        grid = build_grid(r, n_cells)
        plan = build_plan(spec, grid, [1.0])
        p, reach = plan.fft_len, plan.reach
        assert plan.hankel is None and plan.toeplitz.shape == (p // 2 + 1,)
        table = irfft(plan.toeplitz, p)
        expect = kernel_eval(spec.kernel, 0, 0, grid.h * np.arange(reach + 1))
        assert expect[-1] > 0.0
        assert np.max(np.abs(table[:reach + 1] - expect)) <= 1e-15
        assert np.max(np.abs(table[p - reach:] - expect[:0:-1]), initial=0.0) <= 1e-15
        assert np.max(np.abs(table[reach + 1:p - reach])) <= 1e-15

    # the ramp ends at 0.2 or more, so a prefix one cell short or a circle
    # one cell short (p = m + 2L) moves the sums far above roundoff; at 22
    # cells fft_len is m + 2L + 1 itself, at 32 cells it is padded
    @pytest.mark.parametrize("n_cells", [22, 32, 128])
    def test_ramp_kernel_matches_direct_sum(self, n_cells):
        spec = ramp_spec()
        grid = build_grid(8.0, n_cells)
        plan = build_plan(spec, grid, [1.3])
        assert plan.hankel is None
        assert kernel_eval(spec.kernel, 0, 0, grid.h * plan.reach) >= 0.2
        f = bumpy_field(grid, 1)
        fast = apply_operator(plan, f, spec.nonlins)
        slow = direct_apply(spec, plan, f, [1.3])
        assert np.max(np.abs(mirror(fast) - slow)) <= 1e-12


class TestTruncation:
    def test_reference_instance_radius(self):
        spec = scalar_spec()
        r = choose_truncation(spec.kernel, spec.weights, 1e-8, g_sup=1.2)
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
            choose_truncation(spec.kernel, (StickyWeight(),), 1e-8, g_sup=1.0)

    def test_failure_names_the_last_radius_tried(self):
        class HeavyKernel:
            n = 1

            def __init__(self):
                self.radii = []

            def one_sided_tail(self, i, j, y):
                self.radii.append(2.0 * y)  # judged at R/2
                return 1.0

        kernel = HeavyKernel()
        with pytest.raises(SolveError) as info:
            choose_truncation(kernel, scalar_spec().weights, 1e-8, g_sup=1.0)
        assert f"no truncation radius up to {max(kernel.radii):g} meets" in str(info.value)

    def test_bad_inputs_rejected(self):
        spec = scalar_spec()
        with pytest.raises(ValueError):
            choose_truncation(spec.kernel, spec.weights, 0.0, g_sup=1.0)
        with pytest.raises(ValueError):
            choose_truncation(spec.kernel, spec.weights, 1e-8, g_sup=0.0)


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


def test_next_fast_len_matches_scipy():
    assert all(next_fast_len(n) == scipy_next_fast_len(n, real=True)
               for n in range(1, 20001))
