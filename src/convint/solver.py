"""Monotone successive approximations for the discretized system,
certified from the upper sequence alone.

The sequence starts at the constant majorant field (each component pinned
at xi_i) and applies the discrete operator once per step. Theory
guarantees that the iterates decrease pointwise, stay inside the slab
[eta, xi], and that the sup-norm step d_n obeys a geometric envelope with
ratio k. Each guard is enforced per step up to a measured quadrature
slack; violations beyond it indicate a too-coarse grid or a real defect
and abort the run, naming the offending node. An iterate that is not
finite aborts it too, named by its iteration.

Condition IV with phi(s) = s^p, p < 1, gives T(s u) >= s^p T(u) for the
discrete operator T, whose weights and tail term are nonnegative. So T
contracts Thompson's part metric d(u, v) = max|log(u / v)| by the factor p
(A. C. Thompson, 1963) and has one positive fixed point f_h. For a positive
field g, s = d(g, T g) / (1 - p) gives exp(-s) g <= f_h <= exp(s) g, so the
width expm1(s) max(g) bounds sup|g - f_h|. Step n bounds d(up_n, T up_n) by
p d(up_(n-1), up_n); the run stops when both d_n and that width drop to the
step tolerance. One more pass applies T to the last iterate, the solve's
field, for its residual and its own width, probe_deviation. Solve checks
condition IV again on any strip below eta the iterates reached; validation
sampled it on [eta, xi]. A run that reaches the iteration cap MAX_ITERS
first raises SolveError there, so every returned field is certified.

run_instance assembles the paper's stage chain for one validated problem
once: (sigma, k) of the report's slab [eta, xi], truncation and grid,
operator plan, quadrature error budget, certified monotone solve.
run_sweep runs that chain once per excess mass eps of a sweep, on one grid
sized for the largest, validating each rescaled instance first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .discretization import (Grid, OperatorPlan, QuadratureError,
                             apply_operator, build_grid, build_plan,
                             choose_truncation, estimate_quadrature_error)
from .errors import ConfigError, MajorantError, SolveError, ValidationFailure
from .nonlinearities import check_condition_iv, g_eval
from .problem import ValidationReport, validate_problem

__all__ = [
    "Numerics",
    "RunResult",
    "run_instance",
    "run_sweep",
    "IterationTrace",
    "AsymptoticsReport",
    "SolutionReport",
    "solve",
    "asymptotics_report",
]

_trapz = getattr(np, "trapezoid", None) or np.trapz

# iterations of the upper sequence before a solve raises SolveError
MAX_ITERS = 400


@dataclass
class IterationTrace:
    """Per-step diagnostics: d[n-1] is the sup step at iteration n,
    width[n-1] the enclosure width after it, mono_violation and
    slab_excursion the worst rise and slab overshoot. The envelopes
    k^(n-1) (1-sigma) max(xi) and k^n (1-sigma)/(1-k) follow from sigma, k
    and xi, so the trace does not repeat them."""

    d: list = field(default_factory=list)
    width: list = field(default_factory=list)
    mono_violation: list = field(default_factory=list)
    slab_excursion: list = field(default_factory=list)


@dataclass(frozen=True)
class AsymptoticsReport:
    edge_deviation: np.ndarray
    tail_integral: np.ndarray
    half_tail_ratio: np.ndarray


@dataclass
class SolutionReport:
    """What a solve measured. field is the (N, m + 1) array at
    grid.half_nodes of the iterate that met the stopping rule; both edges
    x = -R and x = R hold its last column. residual_sup, sup|field - T field|,
    and probe_deviation, field's own enclosure width (sup|field - f_h| is at
    most it), come from one application of T. trace has one entry per step."""

    grid: Grid
    field: np.ndarray
    residual_sup: float
    probe_deviation: float
    asymptotics: AsymptoticsReport
    trace: IterationTrace

    @property
    def iterations(self) -> int:
        return len(self.trace.d)


def _worst_node(delta, grid):
    i, m = np.unravel_index(int(np.argmax(delta)), delta.shape)
    return f"component {i + 1}, node x = {grid.half_nodes[m]:.6g}"


def _iterate(slab, plan, tol_stop, slack):
    """Upper sequence from xi until the step and the width drop to tol_stop;
    returns (field, each component's minimum over the iterates, trace,
    residual_sup, probe_deviation), the last two from one more pass on field,
    or raises SolveError at MAX_ITERS. Each step's guards read per-component
    reductions; only a failing guard scans the field again, to name the node."""
    grid, problem = plan.grid, slab.spec
    eta = np.asarray(slab.eta, dtype=float)
    xi = np.asarray(slab.xi, dtype=float)
    up = np.repeat(xi[:, None], grid.half_nodes.size, axis=1)
    floor = xi.copy()
    (sig, k), p = slab.contraction, problem.phi.p
    xi_max = float(np.max(xi))
    trace = IterationTrace()

    met = False
    for n in range(1, MAX_ITERS + 2):
        values = apply_operator(plan, up, problem.nonlins)
        step = values - up
        rise, fall = float(np.max(step)), float(np.min(step))
        # both extremes are finite exactly when every value of the iterate is
        if not (math.isfinite(rise) and math.isfinite(fall)):
            raise SolveError(f"upper sequence: iterate {n} is not finite")
        if rise > slack:
            raise SolveError(
                f"upper sequence: monotonicity violated by {rise:.3e} "
                f"(slack {slack:.3e}) at {_worst_node(step, grid)}; "
                "grid likely too coarse")
        # rounding is monotone, so max(eta - lo) is max(eta - values) bitwise
        lo, hi = np.min(values, axis=1), np.max(values, axis=1)
        below, above = float(np.max(eta - lo)), float(np.max(hi - xi))
        out = max(below, above)
        if out > slack:
            where = _worst_node(eta[:, None] - values if below >= above
                                else values - xi[:, None], grid)
            raise SolveError(f"upper sequence left the bounding slab by {out:.3e} "
                             f"(slack {slack:.3e}) at {where}")

        d_n = max(rise, -fall)
        bound = k ** (n - 1) * (1.0 - sig) * xi_max
        if d_n > bound + slack:
            raise SolveError(
                f"upper sequence: step {d_n:.3e} at iteration {n} exceeds the "
                f"geometric bound {bound:.3e} (slack {slack:.3e})")
        # part-metric step eps_n = max|log(values / up)|; log1p is
        # increasing, so the extreme ratios give it
        step /= up
        eps_n = max(math.log1p(float(np.max(step))), -math.log1p(float(np.min(step))))
        if met:
            # the pass after the one that met the rule certifies its field, up
            return up, floor, trace, d_n, math.expm1(eps_n / (1.0 - p)) * float(np.max(up))
        width = math.expm1(p * eps_n / (1.0 - p)) * float(np.max(hi))
        trace.d.append(d_n)
        trace.width.append(width)
        trace.mono_violation.append(max(rise, 0.0))
        trace.slab_excursion.append(max(out, 0.0))
        np.minimum(floor, lo, out=floor)

        up = values
        met = d_n <= tol_stop and width <= tol_stop
        if n == MAX_ITERS and not met:
            raise SolveError(
                f"iteration cap {MAX_ITERS} reached before the step tolerance "
                f"{tol_stop:g} (last step {d_n:.3e}, enclosure width {width:.3e})")


def solve(slab: ValidationReport, plan, tol_stop: float, slack: float) -> SolutionReport:
    """Run the upper sequence from slab.xi down on plan.grid, enclosing f_h;
    the report's field is the last iterate, the (N, m + 1) array at
    plan.grid.half_nodes.

    slab is a validation report: its spec, its slab [eta, xi] and that
    slab's contraction (sigma, k), from which the step envelope is built.
    It stops at tol_stop; each guard allows slack (quad.slack in run_instance).
    Raises the contraction's MajorantError, and SolveError when an iterate
    is not finite, when a guard trips, at the iteration cap MAX_ITERS, or
    when condition IV fails on a strip below eta that the iterates reached.
    """
    f, floor, trace, res_sup, width = _iterate(slab, plan, tol_stop, slack)
    # the enclosure rests on condition IV at every value the iterates took;
    # validation sampled it on [eta, xi] only
    for j, (nl, lo, top) in enumerate(zip(slab.spec.nonlins, floor, slab.eta)):
        if lo < top:
            passed, margin = check_condition_iv(nl, slab.spec.phi, lo, top)
            if not passed:
                raise SolveError(
                    f"condition IV fails below eta, where the iterates reached: "
                    f"margin {margin:.3e} on the strip [{lo:.9g}, {top:.9g}] "
                    f"(nonlin {j + 1}); the enclosure does not hold")

    return SolutionReport(grid=plan.grid, field=f, residual_sup=res_sup,
                          probe_deviation=width, trace=trace,
                          asymptotics=asymptotics_report(plan.grid, f, slab.eta))


def asymptotics_report(grid: Grid, f, eta) -> AsymptoticsReport:
    """Edge deviation at x = R, outer-band tail mass, and its decay ratio.

    The tail integral is of |f - eta| over R/2 < |x| < R, twice the mass of
    the x >= 0 band since f is even; the ratio compares the outer quarter
    (3R/4..R) against the inner quarter (R/2..3R/4) of that band. It is a
    diagnostic, not a pass condition: once the field has settled to eta
    both band masses sit at the regular-quadrature noise floor, and the
    ratio of two noise-level masses can read above one. f is the
    (N, m + 1) array of the field at grid.half_nodes.
    """
    eta = np.asarray(eta, dtype=float)
    x = grid.half_nodes
    gap = np.abs(f - eta[:, None])

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


# each Numerics field: the test its value must pass, once its type has, and
# the message when it fails. None passes only where it is the default
_NUMERICS_RULES = {
    **{name: (lambda v: 0.0 < v < math.inf, "must be finite and positive")
       for name in ("tol_trunc", "tol_stop", "tol_validate")},
    "n_cells": (lambda n: n >= 2 and n % 2 == 0, "must be even and >= 2"),
}


@dataclass(frozen=True)
class Numerics:
    """Numeric controls of one run; the keys of a config's numerics block.

    Solving needs n_cells unless run_instance is handed a grid. Construction
    stores a tolerance as a float and an integral n_cells as an int, and
    raises ValueError("numerics.<key> <must>") for a value its rule refuses.
    """

    tol_trunc: float = 1e-8
    tol_stop: float = 1e-8
    tol_validate: float = 1e-8
    n_cells: int = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.default is None:
                continue
            # the annotations are strings, postponed by this module; a bool
            # is an int to Python, but no number in a config
            integer = f.type == "int"
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or integer and not (isinstance(value, int) or value.is_integer())):
                raise ValueError(f"numerics.{f.name} must be "
                                 f"{'an integer' if integer else 'a number'} (got {value!r})")
            value = int(value) if integer else float(value)
            ok, must = _NUMERICS_RULES[f.name]
            if not ok(value):
                raise ValueError(f"numerics.{f.name} {must}")
            object.__setattr__(self, f.name, value)


@dataclass(frozen=True)
class RunResult:
    """Every stage run_instance computed, with the report and the numerics
    it was handed."""

    validation: ValidationReport
    plan: OperatorPlan
    quad: QuadratureError
    numerics: Numerics
    sol: SolutionReport


def run_instance(validation: ValidationReport, numerics: Numerics,
                 grid: Grid = None) -> RunResult:
    """Run the paper's stages once each on the problem validation checked,
    in the slab [eta, xi] its condition IV certified: (sigma, k); truncation
    radius and grid, unless grid is given (a sweep shares one grid across
    its entries); operator plan; quadrature error budget; monotone solve
    certified by its part-metric enclosure.

    Raises what validation.require_admitted, the one admission verdict,
    raises (before the grid is sized), the solve's SolveError, and
    ConfigError when a grid is needed and numerics.n_cells is not set.
    """
    validation.require_admitted()
    num, spec, eta, xi = numerics, validation.spec, validation.eta, validation.xi

    if grid is None:
        if num.n_cells is None:
            raise ConfigError("set numerics.n_cells")
        # largest nonlinearity value the solve can reach
        g_sup = max(float(g_eval(nl, x)) for nl, x in zip(spec.nonlins, xi))
        r = choose_truncation(spec.kernel, spec.weights, num.tol_trunc, g_sup)
        grid = build_grid(r, num.n_cells)

    plan = build_plan(spec, grid, eta)
    quad = estimate_quadrature_error(spec, plan, eta, xi, validation.scalars)
    return RunResult(validation=validation, plan=plan, quad=quad, numerics=num,
                     sol=solve(validation, plan, num.tol_stop, quad.slack))


def run_sweep(validation: ValidationReport, eps_values, numerics: Numerics):
    """Yield (position, RunResult) per eps in eps_values, position being the
    eps's index in sorted(eps_values), and the result validation's instance
    with every weight moved to that eps. The largest eps runs first and
    sizes the grid the others, in increasing eps, share; equal eps values
    are run once per position. An entry whose eps every weight has reuses
    validation; any other is validated at numerics.tol_validate. Drop each
    result before asking for the next: it holds a plan.

    Raises what validation.require_admitted raises, ConfigError when a
    weight has no eps parameter or refuses an entry's eps, and an entry's
    ValidationFailure, MajorantError or SolveError with its eps named.
    """
    validation.require_admitted()
    ordered = sorted(eps_values)
    positions = list(range(len(ordered)))
    spec, grid = validation.spec, None
    for idx in positions[-1:] + positions[:-1]:
        eps, entry = ordered[idx], validation
        if not all(getattr(w, "eps", None) == eps for w in spec.weights):
            weights = [_swept(w, eps, j) for j, w in enumerate(spec.weights)]
            entry = validate_problem(replace(spec, weights=weights), validation.scalars,
                                     validation.eta, tol=numerics.tol_validate)
        try:
            res = run_instance(entry, numerics, grid)
        except ValidationFailure as exc:
            raise ValidationFailure(f"sweep eps = {eps:g}: {exc}",
                                    report=exc.report) from None
        except (MajorantError, SolveError) as exc:
            raise type(exc)(f"sweep eps = {eps:g}: {exc}") from exc
        grid = res.plan.grid
        yield idx, res
        # kept here, the result would hold its plan through the next entry
        del res


def _swept(weight, eps: float, idx: int):
    if not hasattr(weight, "with_eps"):
        raise ConfigError(
            f"weight {idx + 1} ({type(weight).__name__}) has no eps parameter; "
            "sweep mode needs parametric weights")
    try:
        return weight.with_eps(eps)
    except ValueError as exc:
        raise ConfigError(f"sweep eps = {eps:g}: weight {idx + 1}: {exc}") from exc
