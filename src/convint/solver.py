"""Two-sided monotone successive approximations for the discretized system.

Two sequences run in lock-step: the upper one starts at the constant
majorant field (each component pinned at xi_i) and the lower one at the
constant eigenvector field eta; each step applies the discrete operator
once to each. Theory guarantees that

  * the upper iterates decrease and the lower ones increase pointwise,
  * every iterate stays inside the slab [eta, xi],
  * the upper sup-norm step d_n obeys a geometric envelope with ratio k.

Each guard is enforced per step up to a measured quadrature slack;
violations beyond it indicate a too-coarse grid or a real defect and abort
the run, naming the sequence and the offending node. Because the operator
is monotone, every discrete fixed point in the slab lies between the two
sequences, so the gap sup(upper - lower) bounds the distance from the
upper iterate to the discrete solution (and shows the solution unique in
the slab once it closes). The run stops when both d_n and the gap drop to
the step tolerance, or at the iteration cap, reported distinctly; the
pessimistic iteration count derived from (sigma, k) is reported alongside.
The final gap is reported as probe_deviation.

run_instance assembles the paper's stage chain for one validated problem
once: (sigma, k) from the validated eta and xi, truncation and grid,
operator plan, quadrature error budget, two-sided monotone solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import SpectralData, a_priori_iterations, contraction_params
from .discretization import (FieldVector, Grid, OperatorPlan, QuadratureError,
                             apply_operator, build_grid, build_plan,
                             choose_truncation, constant_field,
                             estimate_quadrature_error)
from .errors import ConfigError, SolveError
from .nonlinearities import g_eval
from .problem import ValidationReport

__all__ = [
    "Numerics",
    "RunResult",
    "run_instance",
    "SolveOptions",
    "IterationTrace",
    "AsymptoticsReport",
    "SolutionReport",
    "solve",
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
    """Per-step diagnostics: d[n-1] is the upper sup step at iteration n,
    gap[n-1] the enclosure width sup(upper - lower) after it, e[n-1] the
    distance-to-limit envelope k^n (1-sigma)/(1-k), step_bound[n-1] the
    geometric step bound k^(n-1) (1-sigma) max(xi). mono_violation and
    slab_excursion hold the upper sequence's worst rise and slab overshoot
    per step; lower_mono_violation and lower_slab_excursion hold the lower
    sequence's worst fall and slab overshoot over the whole run, as scalars,
    so a sweep report does not carry two more lists per entry."""

    d: list = field(default_factory=list)
    gap: list = field(default_factory=list)
    e: list = field(default_factory=list)
    step_bound: list = field(default_factory=list)
    mono_violation: list = field(default_factory=list)
    slab_excursion: list = field(default_factory=list)
    lower_mono_violation: float = 0.0
    lower_slab_excursion: float = 0.0

    def as_dict(self):
        doc = {name: [float(v) for v in getattr(self, name)]
               for name in ("d", "gap", "e", "step_bound", "mono_violation",
                            "slab_excursion")}
        doc["lower_mono_violation"] = float(self.lower_mono_violation)
        doc["lower_slab_excursion"] = float(self.lower_slab_excursion)
        return doc


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
    probe_deviation: float


def _worst_node(delta, grid):
    i, m = np.unravel_index(int(np.argmax(delta)), delta.shape)
    return f"component {i + 1}, node x = {grid.half_nodes[m]:.6g}"


def _guard(name, wrong_way, values, eta, xi, slack, grid):
    """Check one sequence's step; wrong_way is positive where it moved
    against its direction. Returns the worst wrong-way step and the worst
    slab overshoot, raising SolveError when either exceeds slack."""
    worst = float(np.max(wrong_way))
    if worst > slack:
        raise SolveError(
            f"{name} sequence: monotonicity violated by {worst:.3e} "
            f"(slack {slack:.3e}) at {_worst_node(wrong_way, grid)}; "
            "grid likely too coarse")
    below, above = eta - values, values - xi
    out = max(float(np.max(below)), float(np.max(above)))
    if out > slack:
        where = _worst_node(below if np.max(below) >= np.max(above) else above, grid)
        raise SolveError(f"{name} sequence left the bounding slab by {out:.3e} "
                         f"(slack {slack:.3e}) at {where}")
    return worst, out


def _iterate(problem, plan, spectral, opts: SolveOptions, trace: IterationTrace):
    """Two-sided monotone loop; returns (upper field, iterations, termination)."""
    grid = plan.grid
    eta = np.asarray(spectral.eta, dtype=float)[:, None]
    xi = np.asarray(spectral.xi, dtype=float)[:, None]
    up = constant_field(grid, spectral.xi)
    lo = constant_field(grid, spectral.eta)
    sig, k = spectral.sigma, spectral.k
    xi_max = float(np.max(xi))
    slack = opts.mono_slack
    termination = "iteration_cap"
    n_done = opts.max_iters

    for n in range(1, opts.max_iters + 1):
        up_next = apply_operator(plan, up, problem.nonlins)
        lo_next = apply_operator(plan, lo, problem.nonlins)
        step = up_next.values - up.values
        worst_rise, worst_out = _guard("upper", step, up_next.values, eta, xi, slack, grid)
        worst_fall, lower_out = _guard("lower", lo.values - lo_next.values,
                                       lo_next.values, eta, xi, slack, grid)

        d_n = float(np.max(np.abs(step)))
        bound = k ** (n - 1) * (1.0 - sig) * xi_max
        if d_n > bound + slack:
            raise SolveError(
                f"upper sequence: step {d_n:.3e} at iteration {n} exceeds the "
                f"geometric bound {bound:.3e} (slack {slack:.3e})")
        gap = float(np.max(up_next.values - lo_next.values))
        trace.d.append(d_n)
        trace.gap.append(gap)
        trace.e.append(k ** n * (1.0 - sig) / (1.0 - k))
        trace.step_bound.append(bound)
        trace.mono_violation.append(max(worst_rise, 0.0))
        trace.slab_excursion.append(max(worst_out, 0.0))
        trace.lower_mono_violation = max(trace.lower_mono_violation, worst_fall)
        trace.lower_slab_excursion = max(trace.lower_slab_excursion, lower_out)

        up, lo = up_next, lo_next
        if d_n <= opts.tol_stop and gap <= opts.tol_stop:
            termination, n_done = "step_below_tol", n
            break

    return up, n_done, termination


def solve(problem, spectral, plan, opts: SolveOptions) -> SolutionReport:
    """Run the two-sided iteration from xi down and from eta up on plan.grid.

    Raises ValueError unless spectral's (sigma, k) are those
    contraction_params gives for its eta, xi and problem.phi: the step
    envelope is built from them.
    """
    sigma_k = contraction_params(spectral.eta, spectral.xi, problem.phi)
    if (spectral.sigma, spectral.k) != sigma_k:
        raise ValueError(
            f"spectral sigma = {spectral.sigma:.17g}, k = {spectral.k:.17g} do not "
            f"belong to its eta and xi, which give sigma = {sigma_k[0]:.17g}, "
            f"k = {sigma_k[1]:.17g}")
    trace = IterationTrace()
    f, iters, termination = _iterate(problem, plan, spectral, opts, trace)

    res = residual(plan, f, problem.nonlins)
    asym = asymptotics_report(f, spectral.eta)
    # the field is even: both edges x = -R and x = R hold its last column
    return SolutionReport(
        field=f,
        iterations=iters,
        termination=termination,
        residual_sup=res,
        alpha_plus=f.values[:, -1].copy(),
        alpha_minus=f.values[:, -1].copy(),
        asymptotics=asym,
        trace=trace,
        a_priori_n=a_priori_iterations(spectral.sigma, spectral.k, opts.tol_stop),
        probe_deviation=trace.gap[-1],
    )


def residual(plan, f: FieldVector, nonlins) -> float:
    """Sup-norm defect of the fixed-point identity at f."""
    wf = apply_operator(plan, f, nonlins)
    return float(np.max(np.abs(f.values - wf.values)))


def asymptotics_report(f: FieldVector, eta) -> AsymptoticsReport:
    """Edge deviation at x = R, outer-band tail mass, and its decay ratio.

    The tail integral is of |f - eta| over R/2 < |x| < R, twice the mass of
    the x >= 0 band since f is even; the ratio compares the outer quarter
    (3R/4..R) against the inner quarter (R/2..3R/4) of that band. It is a
    diagnostic, not a pass condition: once the field has settled to eta
    both band masses sit at the regular-quadrature noise floor, and the
    ratio of two noise-level masses can read above one.
    """
    eta = np.asarray(eta, dtype=float)
    grid = f.grid
    x = grid.half_nodes
    gap = np.abs(f.values - eta[:, None])

    def band_mass(lo, hi):
        band = (x >= lo - 1e-12) & (x <= hi + 1e-12)
        return 2.0 * _trapz(gap[:, band], x[band], axis=-1)

    tail = band_mass(grid.r / 2.0, grid.r)
    inner = band_mass(grid.r / 2.0, 0.75 * grid.r)
    outer = band_mass(0.75 * grid.r, grid.r)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(inner > 0.0, outer / np.where(inner > 0.0, inner, 1.0),
                         np.where(outer > 0.0, np.inf, 0.0))
    return AsymptoticsReport(edge_deviation=gap[:, -1].copy(), tail_integral=tail,
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


@dataclass(frozen=True)
class RunResult:
    """Every stage run_instance computed, with the report it was handed."""

    validation: ValidationReport
    spectral: SpectralData
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


def run_instance(validation: ValidationReport, numerics: Numerics,
                 grid: Grid = None) -> RunResult:
    """Run the paper's stages once each on the problem validation checked,
    in the slab [eta, xi] its condition IV certified: (sigma, k); truncation
    radius and grid, unless grid is given (a sweep shares one grid across
    its entries); operator plan; quadrature error budget; two-sided
    monotone solve.

    Raises ValidationFailure when a condition failed, the report's
    MajorantError when no majorant exists, SolveError when a solve guard
    trips or the iteration cap is reached before the step and the enclosure
    gap drop to the step tolerance, and ConfigError when a grid is needed
    and neither numerics.n_cells nor numerics.h_target is set.
    """
    validation.require_passed()
    if validation.xi is None:
        raise validation.majorant_error
    num, spec, eta, xi = numerics, validation.spec, validation.eta, validation.xi
    sigma, k = contraction_params(eta, xi, spec.phi)
    spectral = SpectralData(a=validation.scalars.a, eta=eta, b=validation.excess.b,
                            xi=xi, sigma=sigma, k=k)

    if grid is None:
        # largest nonlinearity value the solve can reach
        g_sup = max(float(g_eval(nl, x)) for nl, x in zip(spec.nonlins, xi))
        r = choose_truncation(spec.kernel, spec.weights, eta, num.tol_trunc, g_sup)
        grid = build_grid(r, _n_cells_for(num, r))

    plan = build_plan(spec, grid, eta)
    quad = estimate_quadrature_error(spec, plan, eta, xi, validation.scalars)
    mono_slack = num.mono_slack if num.mono_slack is not None else 10.0 * quad.total
    opts = SolveOptions(tol_stop=num.tol_stop, max_iters=num.max_iters,
                        mono_slack=mono_slack)
    sol = solve(spec, spectral, plan, opts)
    if sol.termination == "iteration_cap":
        raise SolveError(
            f"iteration cap {num.max_iters} reached before the step tolerance "
            f"{num.tol_stop:g} (last step {sol.trace.d[-1]:.3e}, "
            f"enclosure gap {sol.trace.gap[-1]:.3e})")
    return RunResult(validation=validation, spectral=spectral, grid=grid,
                     plan=plan, quad=quad, opts=opts, sol=sol)
