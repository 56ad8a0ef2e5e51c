"""Monotone iteration, its enclosure, stopping rules, guards, and
post-solve diagnostics."""

import dataclasses
import inspect
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import build_pipeline, flagship_models, step_envelopes

from convint import algebra, cli, discretization, kernels, nonlinearities, solver
from convint.algebra import a_priori_iterations, contraction_params
from convint.discretization import apply_operator, build_grid
from convint.errors import SolveError
from convint.nonlinearities import PowerPhi, check_condition_iv
from convint.solver import (Numerics, asymptotics_report, residual, run_instance,
                           run_sweep, solve)

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


@pytest.fixture(scope="module")
def coarse():
    """Same scalar instance on a deliberately coarse grid (fast to re-solve)."""
    return build_pipeline(**flagship_models(), tol_trunc=1e-6, n_cells=512,
                          tol_stop=1e-8)


def solve_like(run, slab):
    """solve in slab on run's plan, with run's step tolerance and slack."""
    return solve(slab, run.plan, run.numerics.tol_stop, run.quad.slack)


class TestReferenceRun:
    def test_terminates_on_small_step(self, flagship):
        sol = flagship.sol
        assert sol.termination == "step_below_tol"
        assert 20 <= sol.iterations <= 30
        assert sol.a_priori_n == 40

    def test_residual_within_budget(self, flagship):
        assert flagship.sol.residual_sup <= flagship.numerics.tol_stop + flagship.quad.slack

    def test_trace_shape_and_guards_quiet(self, flagship):
        tr = flagship.sol.trace
        n = flagship.sol.iterations
        assert len(tr.d) == len(tr.width) == n
        assert len(tr.mono_violation) == len(tr.slab_excursion) == n
        assert max(tr.mono_violation) == 0.0
        assert max(tr.slab_excursion) <= flagship.quad.slack

    def test_steps_decay_within_geometric_bound(self, flagship):
        tr = flagship.sol.trace
        d = np.asarray(tr.d)
        assert np.all(np.diff(d) < 0.0)
        slack = flagship.quad.slack
        step_bound, e = step_envelopes(flagship.validation, len(d))
        assert np.all(d <= step_bound + slack)
        assert np.all(e > 0.0) and np.all(np.diff(e) < 0.0)

    def test_field_stays_in_slab_and_is_even(self, flagship):
        vals = flagship.sol.field
        eta = flagship.validation.eta[:, None]
        xi = flagship.validation.xi[:, None]
        slack = flagship.quad.slack
        assert np.all(vals >= eta - slack)
        assert np.all(vals <= xi + slack)
        # an even field is stored as its x >= 0 half
        assert vals.shape == (1, flagship.plan.grid.n_cells // 2 + 1)

    def test_edge_values_recorded(self, flagship):
        # field[:, 0] is x = 0; both edges x = -R and x = R are field[:, -1]
        sol = flagship.sol
        assert np.array_equal(sol.alpha_plus, sol.field[:, -1])

    def test_solves_in_the_validated_slab(self, flagship):
        # the solve's xi is the one condition IV was checked on, bit for bit:
        # replayed from it, the iterates reach the solve's field exactly
        iterates = replay_to_stall(flagship, cap=flagship.sol.iterations)
        assert iterates[-1].tobytes() == flagship.sol.field.tobytes()
        # and its a priori count is the one of that slab's (sigma, k)
        assert flagship.sol.a_priori_n == a_priori_iterations(
            *flagship.validation.contraction, flagship.numerics.tol_stop)

    def test_residual_recomputes(self, flagship):
        again = residual(flagship.plan, flagship.sol.field, flagship.validation.spec.nonlins)
        assert again == pytest.approx(flagship.sol.residual_sup, rel=1e-12)

    def test_enclosure_gap_closes_to_the_reported_width(self, flagship):
        sol = flagship.sol
        width = np.asarray(sol.trace.width)
        assert len(width) == sol.iterations
        assert np.all(np.diff(width) <= flagship.quad.slack)
        assert width[-1] == sol.probe_deviation
        assert sol.probe_deviation <= flagship.numerics.tol_stop

    def test_trace_serializes(self, flagship):
        doc = flagship.sol.trace.as_dict()
        assert set(doc) == {"d", "width", "mono_violation", "slab_excursion"}
        assert all(isinstance(v, float) for v in doc["d"] + doc["width"])
        asym = flagship.sol.asymptotics.as_dict()
        assert set(asym) == {"edge_deviation", "tail_integral", "half_tail_ratio"}


def replay_to_stall(res, cap=200):
    """The upper iterates up_1, up_2, ... from xi, run until one repeats its
    predecessor bit for bit or for cap applications; the last one stands in
    for the discrete fixed point f_h."""
    up = np.repeat(res.validation.xi[:, None], res.plan.grid.half_nodes.size, axis=1)
    iterates = []
    for _ in range(cap):
        nxt = apply_operator(res.plan, up, res.validation.spec.nonlins)
        iterates.append(nxt)
        if np.array_equal(nxt, up):
            break
        up = nxt
    return iterates


@pytest.fixture(scope="module", params=["flagship", "coupled_pair", "tabulated",
                                        "eps_sweep"])
def demo_runs(request, tmp_path_factory):
    """Every RunResult one CLI run of a bundled config makes (one per sweep
    entry); coupled_pair on 8192 cells instead of 65536."""
    path = DEMO_CONFIGS / f"{request.param}.json"
    if request.param == "coupled_pair":
        doc = json.loads(path.read_text())
        doc["numerics"]["n_cells"] = 8192
        path = tmp_path_factory.mktemp("coarse") / "coupled_pair.json"
        path.write_text(json.dumps(doc))
    runs = []

    def recording(*args):
        runs.append(run_instance(*args))
        return runs[-1]

    with pytest.MonkeyPatch.context() as mp:
        # solve mode calls it from the command line, sweep mode from run_sweep
        mp.setattr(cli, "run_instance", recording)
        mp.setattr(solver, "run_instance", recording)
        code = cli.main(["--config", str(path), "--quiet",
                         "--out-dir", str(tmp_path_factory.mktemp(request.param))])
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(runs) == (len(doc["sweep_eps"]) if doc.get("mode") == "sweep" else 1)
    return runs


class TestEnclosure:
    def test_width_bounds_the_distance_to_the_discrete_fixed_point(self, demo_runs):
        for res in demo_runs:
            sol = res.sol
            iterates = replay_to_stall(res)
            # the replay is the solve's own sequence
            assert np.array_equal(iterates[sol.iterations - 1], sol.field)
            f_h = iterates[-1]
            dist = [float(np.max(np.abs(up - f_h))) for up in iterates[:sol.iterations]]
            assert np.all(np.asarray(sol.trace.width) >= dist)
            assert sol.probe_deviation <= res.numerics.tol_stop

    def test_one_operator_application_per_iteration(self, coarse, monkeypatch):
        # the solve applies the operator once per iteration, the residual once
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return apply_operator(*args, **kwargs)

        monkeypatch.setattr(solver, "apply_operator", counting)
        res = run_instance(coarse.validation,
                           Numerics(tol_trunc=1e-6, n_cells=512, tol_stop=1e-8))
        assert res.sol.field.tobytes() == coarse.sol.field.tobytes()
        assert len(calls) == res.sol.iterations + 1


class FlatBelowEta:
    """eta^(1/2) u^(1/2), but held at eta on [eta - delta, eta): with p = 1/2
    it meets condition IV on [eta, xi] and fails it on any strip that
    reaches into the flat part."""

    def __init__(self, eta, delta):
        self.eta, self.delta = eta, delta

    def g(self, u):
        u = np.asarray(u, dtype=float)
        flat = (u >= self.eta - self.delta) & (u < self.eta)
        out = np.where(flat, self.eta, np.sqrt(self.eta * u))
        return out if out.ndim else float(out)


class TestConditionIVBelowEta:
    def test_failure_below_eta_raises(self, coarse):
        # the coarse solve dips about 3e-6 below eta near the edges
        report = coarse.validation
        spec, eta, xi = report.spec, float(report.eta[0]), float(report.xi[0])
        assert float(np.min(coarse.sol.field)) < eta - 1e-6
        nl = FlatBelowEta(eta, 1e-3)
        assert check_condition_iv(nl, spec.phi, eta, xi)[0]
        assert not check_condition_iv(nl, spec.phi, eta - 1e-6, eta)[0]
        flat = dataclasses.replace(report, spec=dataclasses.replace(spec, nonlins=(nl,)))
        with pytest.raises(SolveError, match=r"condition IV fails below eta.*"
                                             r"on the strip \[0\.99999.*, 1\] \(nonlin 1\)"):
            solve_like(coarse, flat)


class TestStoppingRules:
    def test_iteration_cap_reported_not_raised(self, coarse, monkeypatch):
        monkeypatch.setattr(solver, "MAX_ITERS", 3)
        sol = solve_like(coarse, coarse.validation)
        assert sol.termination == "iteration_cap"
        assert sol.iterations == 3
        assert len(sol.trace.d) == 3

    def test_option_validation(self):
        with pytest.raises(ValueError):
            Numerics(tol_stop=0.0)
        with pytest.raises(ValueError):
            Numerics(n_cells=0)
        # a NaN tolerance would never stop the run, since no comparison holds
        with pytest.raises(ValueError):
            Numerics(tol_stop=float("nan"))
        # an infinite tolerance stops, truncates or passes at once
        for key in ("tol_stop", "tol_trunc", "tol_validate"):
            with pytest.raises(ValueError, match=rf"^numerics\.{key} must be finite"):
                Numerics(**{key: float("inf")})
        # None stands for an unset default only
        assert Numerics(n_cells=None) == Numerics()
        # the type comes first: an int field takes an integral number, a
        # float field any number, and a bool is neither
        for key, value, must in [("n_cells", 2.5, "an integer"),
                                 ("n_cells", True, "an integer"),
                                 ("tol_validate", None, "a number"),
                                 ("tol_stop", "abc", "a number"),
                                 ("tol_stop", False, "a number")]:
            with pytest.raises(ValueError, match=rf"^numerics\.{key} must be {must} \(got "):
                Numerics(**{key: value})
        # stored as the field's type, as a config's numbers are
        num = Numerics(tol_stop=1, n_cells=512.0)
        assert num.n_cells == 512 and isinstance(num.n_cells, int)
        assert num.tol_stop == 1.0 and isinstance(num.tol_stop, float)

    def test_numerics_holds_the_four_run_knobs(self):
        # the iteration cap, the guard slack and the validation sample count
        # are constants, not keys
        assert [f.name for f in dataclasses.fields(Numerics)] == [
            "tol_trunc", "tol_stop", "tol_validate", "n_cells"]
        assert solver.MAX_ITERS == 400

    def test_fixed_numerics_are_not_parameters(self):
        # the step and doubling caps, the stopping tolerances, the sample
        # count and the mixture rule are module constants, not keywords
        removed = {algebra.spectral_radius: {"max_iters"},
                   algebra.perron_vector: {"tol", "max_iters"},
                   algebra.solve_xi: {"tol", "supersolution_cap", "max_iters"},
                   discretization.choose_truncation: {"eta", "r_start", "max_doublings"},
                   nonlinearities.check_condition_iv: {"samples"},
                   kernels.ExpMixtureKernel: {"n_quad", "tail_tol"}}
        for fn, names in removed.items():
            assert not names & set(inspect.signature(fn).parameters), fn.__name__

    def test_sweep_yields_positions_in_sorted_eps(self, coarse):
        # largest first, then increasing; equal eps values run once each
        eps = [0.1, 0.05, 0.1]
        runs = [(idx, res.validation.spec.weights[0].eps, res.plan.grid.n_cells)
                for idx, res in run_sweep(coarse.validation, eps, coarse.numerics)]
        assert runs == [(2, 0.1, 512), (0, 0.05, 512), (1, 0.1, 512)]


class TestGuards:
    def test_non_supersolution_start_raises(self, coarse):
        # an upper level below the true majorant makes the first application
        # rise, which the monotonicity guard must catch
        fake = dataclasses.replace(coarse.validation, xi=1.05 * coarse.validation.eta)
        with pytest.raises(SolveError, match="monotonicity violated"):
            solve_like(coarse, fake)

    def test_lower_start_above_the_solution_raises(self, coarse):
        # the solution settles to eta at the edges, so the upper sequence
        # falls below a slab floor (the old lower start) pinned above eta
        fake = dataclasses.replace(coarse.validation, eta=1.02 * coarse.validation.eta)
        with pytest.raises(SolveError,
                           match=r"upper sequence left the bounding slab by 5\.226e-03"):
            solve_like(coarse, fake)

    def test_step_beyond_geometric_envelope_raises(self, coarse):
        # a scaling map far stronger than the true one gives a contraction
        # ratio (0.09 here, about 0.6 for the true map) that shrinks the
        # envelope faster than the steps can follow
        spec = dataclasses.replace(coarse.validation.spec, phi=PowerPhi(0.06))
        fake = dataclasses.replace(coarse.validation, spec=spec)
        assert fake.contraction[1] < 0.1
        with pytest.raises(SolveError, match="exceeds the geometric bound"):
            solve_like(coarse, fake)

    def test_non_finite_iterate_raises(self, coarse):
        # a map that gives NaN strictly inside the slab: T(xi), the first
        # iterate, lies there, so the second application makes NaN
        report = coarse.validation
        nl, eta, xi = report.spec.nonlins[0], report.eta[0], report.xi[0]
        nan_inside = SimpleNamespace(g=lambda u: np.where((u > eta) & (u < xi), np.nan, nl.g(u)))
        spec = dataclasses.replace(report.spec, nonlins=(nan_inside,))
        with pytest.raises(SolveError, match=r"upper sequence: iterate 2 is not finite"):
            solve_like(coarse, dataclasses.replace(report, spec=spec))

    def test_replaced_slab_derives_its_own_contraction(self, flagship_hires):
        # the step envelope is built from the slab the solve runs in: a
        # report moved to 2 xi derives (sigma, k) of [eta, 2 xi] afresh
        report = flagship_hires.validation
        wide = dataclasses.replace(report, xi=2.0 * report.xi)
        assert wide.contraction == contraction_params(report.eta, 2.0 * report.xi,
                                                      report.spec.phi)
        assert wide.contraction != report.contraction


class TestAsymptotics:
    def make_field(self, grid, gap_fn):
        return (1.0 + gap_fn(grid.half_nodes))[None, :]

    def test_settling_field_has_small_edge_and_decaying_tail(self):
        grid = build_grid(8.0, 256)
        f = self.make_field(grid, lambda x: 0.4 * np.exp(-(x**2)))
        rep = asymptotics_report(grid, f, [1.0])
        assert rep.edge_deviation[0] <= 1e-20
        assert rep.tail_integral[0] > 0.0
        assert rep.half_tail_ratio[0] < 1.0

    def test_exact_constant_reports_zeros(self):
        grid = build_grid(8.0, 256)
        f = np.ones((1, grid.half_nodes.size))
        rep = asymptotics_report(grid, f, [1.0])
        assert rep.edge_deviation[0] == 0.0
        assert rep.tail_integral[0] == 0.0
        assert rep.half_tail_ratio[0] == 0.0

    def test_outer_bump_gives_infinite_ratio(self):
        grid = build_grid(8.0, 256)
        f = self.make_field(grid, lambda x: np.where(np.abs(x) >= 6.5, 0.2, 0.0))
        rep = asymptotics_report(grid, f, [1.0])
        assert np.isinf(rep.half_tail_ratio[0])
