"""Monotone successive approximations for the discretized system.

The iteration starts at the constant majorant field (each component pinned
at xi_i) and applies the discrete operator repeatedly. Theory guarantees,
and this module enforces per step up to a measured quadrature slack:

  * iterates decrease pointwise,
  * every iterate stays inside the slab [eta, xi],
  * the sup-norm step d_n obeys a geometric envelope with ratio k.

Violations beyond the slack indicate a too-coarse grid or a real defect and
abort the run with the offending node. Termination is by step size or by
the iteration cap, reported distinctly; the pessimistic iteration count
derived from (sigma, k) is reported alongside. A second run from an
inflated majorant (the uniqueness probe) must land on the same field; their
deviation is reported.

run_instance assembles the paper's stage chain for one problem once:
majorant xi and (sigma, k), truncation and grid, operator plan, quadrature
error budget, monotone solve, uniqueness probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import (SpectralData, a_priori_iterations, contraction_params,
                      solve_xi)
from .discretization import (FieldVector, Grid, OperatorPlan, QuadratureError,
                             apply_operator, build_grid, build_plan,
                             choose_truncation, constant_field,
                             estimate_quadrature_error)
from .errors import ConfigError, MajorantError, SolveError
from .nonlinearities import g_eval
from .weights import ExcessIntegrals, build_b_matrix

__all__ = [
    "Numerics",
    "RunResult",
    "run_instance",
    "SolveOptions",
    "IterationTrace",
    "AsymptoticsReport",
    "SolutionReport",
    "solve",
    "uniqueness_probe",
    "residual",
    "asymptotics_report",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz


@dataclass(frozen=True)
class SolveOptions:
    tol_stop: float = 1e-8
    max_iters: int = 400
    mono_slack: float = 0.0

    def __post_init__(self):
        if not (self.tol_stop > 0.0):
            raise ValueError("tol_stop must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.mono_slack < 0.0:
            raise ValueError("mono_slack must be nonnegative")


@dataclass
class IterationTrace:
    """Per-step diagnostics: d[n-1] is the sup step at iteration n, e[n-1]
    the distance-to-limit envelope k^n (1-sigma)/(1-k), step_bound[n-1] the
    geometric step bound k^(n-1) (1-sigma) max(xi)."""

    d: list = field(default_factory=list)
    e: list = field(default_factory=list)
    step_bound: list = field(default_factory=list)
    mono_violation: list = field(default_factory=list)
    slab_excursion: list = field(default_factory=list)

    def as_dict(self):
        return {
            "d": [float(v) for v in self.d],
            "e": [float(v) for v in self.e],
            "step_bound": [float(v) for v in self.step_bound],
            "mono_violation": [float(v) for v in self.mono_violation],
            "slab_excursion": [float(v) for v in self.slab_excursion],
        }


@dataclass(frozen=True)
class AsymptoticsReport:
    edge_deviation: np.ndarray
    tail_integral: np.ndarray
    half_tail_ratio: np.ndarray

    def as_dict(self):
        return {
            "edge_deviation": [float(v) for v in self.edge_deviation],
            "tail_integral": [float(v) for v in self.tail_integral],
            "half_tail_ratio": [float(v) for v in self.half_tail_ratio],
        }


@dataclass
class SolutionReport:
    field: FieldVector
    iterations: int
    termination: str
    residual_sup: float
    alpha_plus: np.ndarray
    alpha_minus: np.ndarray
    asymptotics: AsymptoticsReport
    trace: IterationTrace
    a_priori_n: int
    probe_deviation: float = None


def _worst_node(delta, grid):
    i, m = np.unravel_index(int(np.argmax(delta)), delta.shape)
    return f"component {i + 1}, node x = {grid.nodes[m]:.6g}"


def _iterate(problem, plan, start: FieldVector, lower, upper, opts: SolveOptions,
             spectral=None, trace: IterationTrace = None):
    """Shared monotone loop; returns (field, iterations, termination)."""
    grid = plan.grid
    lower = np.asarray(lower, dtype=float)[:, None]
    upper = np.asarray(upper, dtype=float)[:, None]
    f_prev = start
    xi_max = float(np.max(upper))
    termination = "iteration_cap"
    n_done = opts.max_iters

    for n in range(1, opts.max_iters + 1):
        f_next = apply_operator(plan, f_prev, problem.nonlins)

        rise = f_next.values - f_prev.values
        worst_rise = float(np.max(rise))
        if worst_rise > opts.mono_slack:
            raise SolveError(
                f"monotonicity violated by {worst_rise:.3e} (slack {opts.mono_slack:.3e}) "
                f"at {_worst_node(rise, grid)}; grid likely too coarse")

        below = lower - f_next.values
        above = f_next.values - upper
        worst_out = max(float(np.max(below)), float(np.max(above)))
        if worst_out > opts.mono_slack:
            where = _worst_node(below if np.max(below) >= np.max(above) else above, grid)
            raise SolveError(
                f"iterate left the bounding slab by {worst_out:.3e} "
                f"(slack {opts.mono_slack:.3e}) at {where}")

        d_n = float(np.max(np.abs(rise)))
        if trace is not None and spectral is not None:
            sig, k = spectral.sigma, spectral.k
            trace.d.append(d_n)
            trace.e.append(k ** n * (1.0 - sig) / (1.0 - k))
            trace.step_bound.append(k ** (n - 1) * (1.0 - sig) * xi_max)
            trace.mono_violation.append(max(worst_rise, 0.0))
            trace.slab_excursion.append(max(worst_out, 0.0))

        f_prev = f_next
        if d_n <= opts.tol_stop:
            termination, n_done = "step_below_tol", n
            break

    return f_prev, n_done, termination


def solve(problem, grid, spectral, plan, opts: SolveOptions) -> SolutionReport:
    """Run the iteration from the majorant field down to the solution."""
    start = constant_field(grid, spectral.xi, boundary=spectral.eta)
    trace = IterationTrace()
    f, iters, termination = _iterate(
        problem, plan, start, lower=spectral.eta, upper=spectral.xi,
        opts=opts, spectral=spectral, trace=trace)

    res = residual(plan, f, problem.nonlins)
    asym = asymptotics_report(f, spectral.eta, grid)
    return SolutionReport(
        field=f,
        iterations=iters,
        termination=termination,
        residual_sup=res,
        alpha_plus=f.values[:, -1].copy(),
        alpha_minus=f.values[:, 0].copy(),
        asymptotics=asym,
        trace=trace,
        a_priori_n=a_priori_iterations(spectral.sigma, spectral.k, opts.tol_stop),
    )


def uniqueness_probe(problem, grid, spectral, plan, base: SolutionReport,
                     scale: float = 2.0, opts: SolveOptions = None) -> float:
    """Re-run from an inflated majorant and report the sup deviation.

    The start scale * xi must itself be a supersolution (one operator
    application moves it down); concavity guarantees that for scale >= 1,
    and the check refuses to run otherwise.
    """
    if scale < 1.0:
        raise ValueError("scale must be at least 1")
    if opts is None:
        raise ValueError("pass the SolveOptions used for the base run")
    start = constant_field(grid, scale * spectral.xi, boundary=spectral.eta)
    trial = apply_operator(plan, start, problem.nonlins)
    overshoot = float(np.max(trial.values - start.values))
    if overshoot > opts.mono_slack:
        raise SolveError(
            f"scale {scale:g} * xi is not a supersolution "
            f"(operator exceeds it by {overshoot:.3e}); probe refused")

    f, _, termination = _iterate(
        problem, plan, start, lower=spectral.eta, upper=scale * spectral.xi,
        opts=opts, spectral=None, trace=None)
    if termination == "iteration_cap":
        raise SolveError("uniqueness probe did not converge within the iteration cap")
    return float(np.max(np.abs(f.values - base.field.values)))


def residual(plan, f: FieldVector, nonlins) -> float:
    """Sup-norm defect of the fixed-point identity at f."""
    wf = apply_operator(plan, f, nonlins)
    return float(np.max(np.abs(f.values - wf.values)))


def asymptotics_report(f: FieldVector, eta, grid) -> AsymptoticsReport:
    """Edge deviation, outer-band tail mass, and its decay ratio.

    The tail integral is of |f - eta| over R/2 < |x| < R; the ratio compares
    the outer quarter (3R/4..R) against the inner quarter (R/2..3R/4) of
    that band and must come out below one for a field that settles to eta.
    """
    eta = np.asarray(eta, dtype=float)
    x = grid.nodes
    gap = np.abs(f.values - eta[:, None])

    edge = np.maximum(gap[:, 0], gap[:, -1])

    def band_mass(lo, hi):
        right = (x >= lo - 1e-12) & (x <= hi + 1e-12)
        left = (x <= -lo + 1e-12) & (x >= -hi - 1e-12)
        out = np.empty(f.n)
        for i in range(f.n):
            out[i] = _trapz(gap[i, right], x[right]) + _trapz(gap[i, left], x[left])
        return out

    tail = band_mass(grid.r / 2.0, grid.r)
    inner = band_mass(grid.r / 2.0, 0.75 * grid.r)
    outer = band_mass(0.75 * grid.r, grid.r)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(inner > 0.0, outer / np.where(inner > 0.0, inner, 1.0),
                         np.where(outer > 0.0, np.inf, 0.0))
    return AsymptoticsReport(edge_deviation=edge, tail_integral=tail,
                             half_tail_ratio=ratio)


@dataclass(frozen=True)
class Numerics:
    """Numeric controls of one run; the keys of a config's numerics block.

    Solving needs n_cells, or h_target to derive it from the truncation
    radius, unless run_instance is handed a grid. mono_slack defaults to ten
    times the measured quadrature error budget.
    """

    tol_eig: float = 1e-12
    tol_alg: float = 1e-13
    tol_trunc: float = 1e-8
    tol_stop: float = 1e-8
    tol_validate: float = 1e-8
    n_cells: int = None
    h_target: float = None
    max_iters: int = 400
    mono_slack: float = None
    samples: int = 64
    probe_scale: float = 2.0
    run_probe: bool = True


@dataclass(frozen=True)
class RunResult:
    """Every stage run_instance computed for one problem."""

    spec: object
    spectral: SpectralData
    excess: ExcessIntegrals
    grid: Grid
    plan: OperatorPlan
    quad: QuadratureError
    opts: SolveOptions
    sol: SolutionReport


def _n_cells_for(num: Numerics, r: float) -> int:
    if num.n_cells is not None:
        return num.n_cells
    if num.h_target is not None:
        return 2 * max(1, math.ceil(r / num.h_target))
    raise ConfigError("set numerics.n_cells or numerics.h_target")


def run_instance(spec, scalars, eta, numerics: Numerics, grid: Grid = None) -> RunResult:
    """Run the paper's stages once each on a validated problem.

    spec must carry the normalized kernel, scalars its kernel scalars and
    eta the eigenvector of scalars.a. The stages run in order: majorant xi
    and (sigma, k); truncation radius and grid, unless grid is given (a
    sweep shares one grid across its entries); operator plan; quadrature
    error budget; monotone solve; uniqueness probe when numerics.run_probe.

    Raises MajorantError when no majorant exists, SolveError when a solve
    guard trips or the iteration cap is reached before the step tolerance,
    and ConfigError when a grid is needed and neither numerics.n_cells nor
    numerics.h_target is set.
    """
    num = numerics
    excess = build_b_matrix(spec.weights, scalars)
    try:
        xi = solve_xi(scalars.a, excess.b, spec.nonlins, eta, num.tol_alg)
    except ValueError as exc:
        raise MajorantError(str(exc)) from exc
    sigma, k = contraction_params(eta, xi, spec.phi)
    spectral = SpectralData(a=scalars.a, eta=eta, b=excess.b, xi=xi,
                            sigma=sigma, k=k)

    if grid is None:
        # largest nonlinearity value the solve can reach
        g_sup = max(float(g_eval(nl, x)) for nl, x in zip(spec.nonlins, xi))
        r = choose_truncation(spec.kernel, spec.weights, eta, num.tol_trunc, g_sup)
        grid = build_grid(r, _n_cells_for(num, r))

    plan = build_plan(spec, grid)
    quad = estimate_quadrature_error(spec, plan, eta, xi, scalars)
    mono_slack = num.mono_slack if num.mono_slack is not None else 10.0 * quad.total
    opts = SolveOptions(tol_stop=num.tol_stop, max_iters=num.max_iters,
                        mono_slack=mono_slack)
    sol = solve(spec, grid, spectral, plan, opts)
    if sol.termination == "iteration_cap":
        raise SolveError(
            f"iteration cap {num.max_iters} reached before the step tolerance "
            f"{num.tol_stop:g} (last step {sol.trace.d[-1]:.3e})")
    if num.run_probe:
        sol.probe_deviation = uniqueness_probe(
            spec, grid, spectral, plan, sol, scale=num.probe_scale, opts=opts)
    return RunResult(spec=spec, spectral=spectral, excess=excess, grid=grid,
                     plan=plan, quad=quad, opts=opts, sol=sol)
