"""Monotone iteration, stopping rules, guards, and post-solve diagnostics."""

import dataclasses

import numpy as np
import pytest
from conftest import build_pipeline, doctored_spectral, flagship_models

from convint.algebra import contraction_params
from convint.discretization import FieldVector, build_grid, constant_field
from convint.errors import SolveError
from convint.nonlinearities import PowerPhi
from convint.solver import (
    SolveOptions,
    asymptotics_report,
    residual,
    solve,
)


@pytest.fixture(scope="module")
def coarse():
    """Same scalar instance on a deliberately coarse grid (fast to re-solve)."""
    return build_pipeline(**flagship_models(), tol_trunc=1e-6, n_cells=512,
                          tol_stop=1e-8)


class TestReferenceRun:
    def test_terminates_on_small_step(self, flagship):
        sol = flagship.sol
        assert sol.termination == "step_below_tol"
        assert 20 <= sol.iterations <= 30
        assert sol.a_priori_n == 40

    def test_residual_within_budget(self, flagship):
        assert flagship.sol.residual_sup <= flagship.opts.tol_stop + flagship.opts.mono_slack

    def test_trace_shape_and_guards_quiet(self, flagship):
        tr = flagship.sol.trace
        n = flagship.sol.iterations
        assert len(tr.d) == len(tr.e) == len(tr.step_bound) == n
        assert len(tr.mono_violation) == len(tr.slab_excursion) == n
        assert max(tr.mono_violation) == 0.0
        assert max(tr.slab_excursion) <= flagship.opts.mono_slack

    def test_steps_decay_within_geometric_bound(self, flagship):
        tr = flagship.sol.trace
        d = np.asarray(tr.d)
        assert np.all(np.diff(d) < 0.0)
        slack = flagship.opts.mono_slack
        assert np.all(d <= np.asarray(tr.step_bound) + slack)
        e = np.asarray(tr.e)
        assert np.all(e > 0.0) and np.all(np.diff(e) < 0.0)

    def test_field_stays_in_slab_and_is_even(self, flagship):
        vals = flagship.sol.field.values
        eta = flagship.spectral.eta[:, None]
        xi = flagship.spectral.xi[:, None]
        slack = flagship.opts.mono_slack
        assert np.all(vals >= eta - slack)
        assert np.all(vals <= xi + slack)
        # an even field is stored as its x >= 0 half
        assert vals.shape == (1, flagship.grid.n_cells // 2 + 1)

    def test_edge_values_recorded(self, flagship):
        # values[:, 0] is x = 0; both edges x = -R and x = R are values[:, -1]
        sol = flagship.sol
        assert np.array_equal(sol.alpha_plus, sol.field.values[:, -1])
        assert np.array_equal(sol.alpha_minus, sol.field.values[:, -1])

    def test_solves_in_the_validated_slab(self, flagship):
        # the solve's xi is the one condition IV was checked on, bit for bit
        assert flagship.validation.xi.tobytes() == flagship.spectral.xi.tobytes()
        assert flagship.validation.eta.tobytes() == flagship.spectral.eta.tobytes()

    def test_residual_recomputes(self, flagship):
        again = residual(flagship.plan, flagship.sol.field, flagship.validation.spec.nonlins)
        assert again == pytest.approx(flagship.sol.residual_sup, rel=1e-12)

    def test_enclosure_gap_closes_to_the_reported_width(self, flagship):
        sol = flagship.sol
        gap = np.asarray(sol.trace.gap)
        assert len(gap) == sol.iterations
        assert np.all(np.diff(gap) <= flagship.opts.mono_slack)
        assert gap[-1] == sol.probe_deviation
        assert sol.probe_deviation <= flagship.opts.tol_stop

    def test_trace_serializes(self, flagship):
        doc = flagship.sol.trace.as_dict()
        assert set(doc) == {"d", "gap", "e", "step_bound", "mono_violation",
                            "slab_excursion", "lower_mono_violation",
                            "lower_slab_excursion"}
        assert all(isinstance(v, float) for v in doc["d"] + doc["gap"])
        asym = flagship.sol.asymptotics.as_dict()
        assert set(asym) == {"edge_deviation", "tail_integral", "half_tail_ratio"}


class TestStoppingRules:
    def test_iteration_cap_reported_not_raised(self, coarse):
        opts = SolveOptions(tol_stop=coarse.opts.tol_stop, max_iters=3,
                            mono_slack=coarse.opts.mono_slack)
        sol = solve(coarse.validation.spec, coarse.spectral, coarse.plan, opts)
        assert sol.termination == "iteration_cap"
        assert sol.iterations == 3
        assert len(sol.trace.d) == 3

    def test_option_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(tol_stop=0.0)
        with pytest.raises(ValueError):
            SolveOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolveOptions(mono_slack=-1.0)


def slab(spectral, phi, **overrides):
    """spectral with eta and/or xi replaced and (sigma, k) recomputed for them."""
    fake = doctored_spectral(spectral, **overrides)
    sigma, k = contraction_params(fake.eta, fake.xi, phi)
    return doctored_spectral(fake, sigma=sigma, k=k)


class TestGuards:
    def test_non_supersolution_start_raises(self, coarse):
        # an upper level below the true majorant makes the first application
        # rise, which the monotonicity guard must catch
        fake = slab(coarse.spectral, coarse.validation.spec.phi, xi=1.05 * coarse.spectral.eta)
        with pytest.raises(SolveError, match="monotonicity violated"):
            solve(coarse.validation.spec, fake, coarse.plan, coarse.opts)

    def test_lower_start_above_the_solution_raises(self, coarse):
        # the solution settles to eta at the edges, so a lower start pinned
        # above eta falls there on the first application
        fake = slab(coarse.spectral, coarse.validation.spec.phi, eta=1.02 * coarse.spectral.eta)
        with pytest.raises(SolveError, match="lower sequence: monotonicity violated"):
            solve(coarse.validation.spec, fake, coarse.plan, coarse.opts)

    def test_step_beyond_geometric_envelope_raises(self, coarse):
        # a scaling map far stronger than the true one gives a contraction
        # ratio (0.09 here, about 0.6 for the true map) that shrinks the
        # envelope faster than the steps can follow
        spec = dataclasses.replace(coarse.validation.spec, phi=PowerPhi(0.06))
        fake = slab(coarse.spectral, spec.phi)
        assert fake.k < 0.1
        with pytest.raises(SolveError, match="exceeds the geometric bound"):
            solve(spec, fake, coarse.plan, coarse.opts)

    def test_spectral_of_another_slab_rejected(self, flagship_hires):
        # 2 xi is a valid upper start, but (sigma, k) belong to xi; the step
        # envelope would be built from the wrong slab
        pipe = flagship_hires
        fake = doctored_spectral(pipe.spectral, xi=2.0 * pipe.spectral.xi)
        with pytest.raises(ValueError, match=r"sigma = .*, k = .*"):
            solve(pipe.validation.spec, fake, pipe.plan, pipe.opts)


class TestAsymptotics:
    def make_field(self, grid, gap_fn):
        values = (1.0 + gap_fn(grid.half_nodes))[None, :]
        return FieldVector(grid=grid, values=values)

    def test_settling_field_has_small_edge_and_decaying_tail(self):
        grid = build_grid(8.0, 256)
        f = self.make_field(grid, lambda x: 0.4 * np.exp(-(x**2)))
        rep = asymptotics_report(f, [1.0])
        assert rep.edge_deviation[0] <= 1e-20
        assert rep.tail_integral[0] > 0.0
        assert rep.half_tail_ratio[0] < 1.0

    def test_exact_constant_reports_zeros(self):
        grid = build_grid(8.0, 256)
        f = constant_field(grid, [1.0])
        rep = asymptotics_report(f, [1.0])
        assert rep.edge_deviation[0] == 0.0
        assert rep.tail_integral[0] == 0.0
        assert rep.half_tail_ratio[0] == 0.0

    def test_outer_bump_gives_infinite_ratio(self):
        grid = build_grid(8.0, 256)
        f = self.make_field(grid, lambda x: np.where(np.abs(x) >= 6.5, 0.2, 0.0))
        rep = asymptotics_report(f, [1.0])
        assert np.isinf(rep.half_tail_ratio[0])
