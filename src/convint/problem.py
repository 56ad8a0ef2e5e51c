"""Problem instance model and numeric validation of its structural conditions.

A ProblemSpec bundles one instance: the matrix kernel, the N weights, the N
concave nonlinearities, and the scaling map phi. validate_problem checks the
eight admission conditions by sampling and by the models' analytic facilities:

  1   kernel entries even, symmetric in the index pair, strictly positive
  2   kernel-integral matrix has unit spectral radius and eta as its
      eigenvector with largest entry one; first moments finite
  a   weights exceed one (positive excess) where defined
  b   excess masses are finite with vanishing tails
  I   nonlinearities strictly increasing from zero
  II  fixed-point consistency: G_j(0) = 0 and G_j(eta_j) = eta_j, both for
      the declared eta_j and for the run's eigenvector eta
  III strict concavity, witnessed by a positive chord-slope gap
  IV  the scaling inequality G_j(sigma u) >= phi(sigma) G_j(u) on
      [0,1] x [eta_j, xi_j]

normalize takes a raw kernel to the run's inputs: the kernel rescaled to
unit spectral radius, its scalars and the eigenvector eta. validate_problem
is handed those scalars and eta (checked, not trusted); the excess masses
and the majorant xi are computed there, once, so the report carries the
very slab [eta, xi] that run_instance solves in, and derives that slab's
contraction constants (sigma, k) from it on first use.

Continuous statements are checked on deterministic sample grids of SAMPLES
points: uniform in u, logarithmic in |t| so both the singularity and the
tail of each weight are probed. validate_problem collects failures into the
report and raises none; its require_passed raises them as ValidationFailure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import EIG_TOL, contraction_params, perron_vector, solve_xi, spectral_radius
from .errors import MajorantError, SpectralError, ValidationFailure
from .kernels import kernel_eval, kernel_scalars
from .nonlinearities import SAMPLES, check_condition_iv, chord_slope_gap, g_eval
from .weights import (ExcessIntegrals, TabulatedExcessWeight, build_b_matrix,
                      excess_tail_mass)

__all__ = ["ProblemSpec", "ConditionCheck", "ValidationReport", "normalize",
           "validate_problem"]

CONDITION_IDS = ("1", "2", "a", "b", "I", "II", "III", "IV")


@dataclass(frozen=True)
class ProblemSpec:
    """One complete instance; structural shape is enforced at construction."""

    n: int
    kernel: object
    weights: tuple
    nonlins: tuple
    phi: object

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        object.__setattr__(self, "weights", tuple(self.weights))
        object.__setattr__(self, "nonlins", tuple(self.nonlins))
        if self.kernel.n != self.n:
            raise ValueError(f"expected a {self.n}-component kernel, got {self.kernel.n}")
        if len(self.weights) != self.n:
            raise ValueError(f"expected {self.n} weights, got {len(self.weights)}")
        if len(self.nonlins) != self.n:
            raise ValueError(f"expected {self.n} nonlinearities, got {len(self.nonlins)}")


@dataclass(frozen=True)
class ConditionCheck:
    condition: str
    passed: bool
    worst_point: str
    worst_value: float
    tol: float
    note: str = ""

    def as_dict(self):
        return {
            "condition": self.condition,
            "passed": bool(self.passed),
            "worst_point": self.worst_point,
            "worst_value": float(self.worst_value),
            "tol": float(self.tol),
            "note": self.note,
        }


@dataclass(frozen=True)
class ValidationReport:
    """The checks and what they were made on. xi is None when no majorant
    exists; majorant_error then holds the reason, if xi was attempted."""

    spec: ProblemSpec
    scalars: object
    eta: np.ndarray
    excess: ExcessIntegrals = None
    xi: np.ndarray = None
    majorant_error: MajorantError = None
    checks: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failing_ids(self):
        return [c.condition for c in self.checks if not c.passed]

    @cached_property
    def contraction(self):
        """(sigma, k) of the slab [eta, xi] and spec.phi, derived on first
        use; dataclasses.replace gives a report that derives its own. Raises
        contraction_params' MajorantError when either is outside (0, 1)."""
        return contraction_params(self.eta, self.xi, self.spec.phi)

    def require_passed(self):
        """Raise ValidationFailure, carrying this report, unless every
        condition passed."""
        if not self.passed:
            raise ValidationFailure(
                f"condition(s) {', '.join(self.failing_ids)} failed", report=self)

    def as_dict(self):
        return {"passed": self.passed, "checks": [c.as_dict() for c in self.checks]}

    def __str__(self):
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            note = f" ({c.note})" if c.note else ""
            lines.append(f"condition {c.condition:>3}: {status}  "
                         f"worst {c.worst_value:.3e} at {c.worst_point}{note}")
        return "\n".join(lines)


def normalize(kernel):
    """(kernel rescaled to unit spectral radius, its scalars, the
    eigenvector eta of its integral matrix with largest entry one, the
    factor rho divided out). Both power iterations run to EIG_TOL, below
    spectral_radius's own default. Raises kernel_scalars' ValueError and
    SpectralError when a power iteration does not converge."""
    rho = spectral_radius(kernel_scalars(kernel).a, EIG_TOL)
    kernel = kernel.rescaled(1.0 / rho)
    scalars = kernel_scalars(kernel)
    return kernel, scalars, perron_vector(scalars.a), rho


def _weight_sample_grid(model):
    """Log-spaced |t| samples inside the weight's support, singularity first."""
    if isinstance(model, TabulatedExcessWeight):
        lo = max(float(np.min(np.abs(model.t[model.t != 0.0]))), 1e-8)
        hi = float(np.max(np.abs(model.t)))
    else:
        lo, hi = 1e-8, 50.0
    if hi <= lo:
        hi = lo * 10.0
    # log10/10** round trips can land an endpoint a few ulps outside the
    # support, where a table's excess reads 0
    return np.clip(np.logspace(np.log10(lo), np.log10(hi), SAMPLES), lo, hi)


def _worse(x, worst) -> bool:
    """Whether sample x replaces the running worst (smallest) value: when it
    is smaller or NaN. A NaN, once recorded, stays the worst, so the
    condition fails on it."""
    return not (x >= worst) and worst == worst


def _larger(x, worst) -> bool:
    """_worse for a running largest value (a defect): x replaces worst when
    it is larger or NaN, and a recorded NaN stays."""
    return not (x <= worst) and worst == worst


def validate_problem(spec: ProblemSpec, scalars, eta,
                     tol: float = 1e-8) -> ValidationReport:
    """Check all eight admission conditions of spec, given its kernel
    scalars and eigenvector eta, at tolerance tol. Returns a report, raises
    nothing for condition failures (structural defects still raise
    ValueError)."""
    eta = np.asarray(eta, dtype=float)
    checks, excess, xi, majorant_error = [], None, None, None

    # condition 1: evenness, index symmetry, strict positivity of the kernel
    span = spec.kernel.sample_span()
    taus = np.linspace(0.0, span, SAMPLES)
    min_val, min_at = np.inf, ""
    asym = 0.0
    for i in range(spec.n):
        for j in range(spec.n):
            k_pos = np.asarray(kernel_eval(spec.kernel, i, j, taus), dtype=float)
            k_neg = np.asarray(kernel_eval(spec.kernel, i, j, -taus), dtype=float)
            k_ji = np.asarray(kernel_eval(spec.kernel, j, i, taus), dtype=float)
            m = int(np.argmin(k_pos))
            if _worse(k_pos[m], min_val):
                min_val, min_at = float(k_pos[m]), f"K[{i},{j}] at tau={taus[m]:.6g}"
            # np.max, unlike Python's max, keeps a NaN
            asym = float(np.max([asym, np.max(np.abs(k_pos - k_neg)),
                                 np.max(np.abs(k_pos - k_ji))]))
    scale = float(np.max(scalars.sup))
    ok_pos = min_val > 0.0
    ok_sym = asym <= tol * scale
    if not ok_pos:
        worst1, note1 = min_val, "kernel not strictly positive"
    elif not ok_sym:
        worst1, note1 = asym, "kernel not even or not index-symmetric"
    else:
        worst1, note1 = min_val, "smallest sampled kernel value"
    checks.append(ConditionCheck("1", ok_pos and ok_sym, min_at, worst1, tol, note1))

    # condition 2: unit spectral radius, eta its eigenvector with max entry
    # 1 (as perron_vector returns it), finite first moments
    try:
        gap = abs(spectral_radius(scalars.a) - 1.0)
    except SpectralError as exc:
        checks.append(ConditionCheck(
            "2", False, "power iteration", float("nan"), tol, str(exc)))
    else:
        eta_gap = max(float(np.max(np.abs(scalars.a @ eta - eta))),
                      abs(float(np.max(eta)) - 1.0))
        moments_ok = bool(np.all(np.isfinite(scalars.first_moment))
                          and np.all(scalars.first_moment > 0.0))
        at2, worst2, note2 = "rho(A) - 1", gap, ""
        if gap > tol:
            note2 = "spectral radius differs from one"
        elif eta_gap > tol:
            at2, worst2 = "A eta - eta, max eta - 1", eta_gap
            note2 = "eta is not the eigenvector of A with largest entry one"
        elif not moments_ok:
            note2 = "first moments not finite positive"
        checks.append(ConditionCheck("2", not note2, at2, worst2, tol, note2))

    # condition a: mu > 1, i.e. strictly positive excess at every sample
    worst_exc, worst_at = np.inf, ""
    for j, w in enumerate(spec.weights):
        grid = _weight_sample_grid(w)
        for sgn in (1.0, -1.0):
            vals = np.asarray(w.excess(sgn * grid), dtype=float)
            m = int(np.argmin(vals))
            if _worse(vals[m], worst_exc):
                worst_exc = float(vals[m])
                worst_at = f"t={sgn * grid[m]:.6g} (weight {j + 1})"
    checks.append(ConditionCheck(
        "a", worst_exc > 0.0, worst_at, worst_exc, 0.0,
        "" if worst_exc > 0.0 else "weight does not exceed one"))

    # condition b: finite excess mass with a vanishing tail
    try:
        excess = build_b_matrix(spec.weights, scalars)
        tails = np.array([excess_tail_mass(w, 1e6 if not isinstance(w, TabulatedExcessWeight)
                                           else float(np.max(np.abs(w.t))))
                          for w in spec.weights])
        okb = bool(np.all(np.isfinite(excess.w)) and np.all(tails <= max(tol, 1e-6)))
        jmax = int(np.argmax(excess.w))
        checks.append(ConditionCheck(
            "b", okb, f"weight {jmax + 1}", float(excess.w[jmax]), tol,
            "largest excess mass" if okb else "excess mass not summable"))
    except ValueError as exc:
        checks.append(ConditionCheck(
            "b", False, "excess integral", float("nan"), tol, str(exc)))

    # the run's majorant; the nonlinearity conditions sample up to 2 xi
    xi_ref, xi_note = None, ""
    if excess is not None:
        try:
            xi_ref = xi = solve_xi(scalars.a, excess.b, spec.nonlins, eta)
        except (MajorantError, ValueError) as exc:
            majorant_error = (exc if isinstance(exc, MajorantError)
                              else MajorantError(str(exc)))
            xi_note = f"majorant solve failed ({exc}); using 4 eta"
    if xi_ref is None:
        xi_ref = 4.0 * eta
        xi_note = xi_note or "majorant unavailable; using 4 eta"
    u_top = 2.0 * float(np.max(xi_ref))

    def sample_top(nl) -> float:
        # tabulated models are only defined up to their last sample
        u_max = getattr(nl, "u_max", None)
        return u_top if u_max is None else min(u_top, float(u_max))

    # condition I: strictly increasing on [0, 2 xi]
    worst_inc, inc_at = np.inf, ""
    for j, nl in enumerate(spec.nonlins):
        u_grid = np.linspace(0.0, sample_top(nl), SAMPLES)
        diffs = np.diff(np.asarray(g_eval(nl, u_grid), dtype=float))
        m = int(np.argmin(diffs))
        if _worse(diffs[m], worst_inc):
            worst_inc = float(diffs[m])
            inc_at = f"u in [{u_grid[m]:.6g}, {u_grid[m + 1]:.6g}] (nonlin {j + 1})"
    checks.append(ConditionCheck(
        "I", worst_inc > 0.0, inc_at, worst_inc, 0.0,
        "smallest sampled increment" if worst_inc > 0.0 else "not strictly increasing"))

    # condition II: G(0) = 0 and G(eta) = eta, declared and computed. One
    # defect (value, point, note) is reported whole: a table short of the
    # computed eta first, as G(eta) cannot be evaluated there, else the largest
    defects, uncovered = [], []
    for j, nl in enumerate(spec.nonlins):
        eta_j, cover = float(eta[j]), getattr(nl, "u_max", None)
        defects += [
            (abs(float(g_eval(nl, 0.0))), f"u=0 (nonlin {j + 1})", ""),
            (abs(float(g_eval(nl, nl.eta)) - nl.eta),
             f"u=eta declared ({nl.eta:.6g}, nonlin {j + 1})", ""),
            (abs(nl.eta - eta_j), f"declared eta vs computed ({eta_j:.6g}, nonlin {j + 1})",
             "declared eta disagrees with the kernel eigenvector")]
        at = f"u=eta computed ({eta_j:.6g}, nonlin {j + 1})"
        if cover is not None and eta_j > float(cover):
            uncovered.append((eta_j - float(cover), at, "table does not cover the computed eta"))
        else:
            defects.append((abs(float(g_eval(nl, eta_j)) - eta_j), at, ""))
    worst_fp, fp_at, note2b = 0.0, "u=0", ""
    for defect in uncovered or defects:
        if _larger(defect[0], worst_fp):
            worst_fp, fp_at, note2b = defect
    okII = worst_fp <= tol
    checks.append(ConditionCheck(
        "II", okII, fp_at, worst_fp, tol, note2b if not okII else ""))

    # condition III: strict concavity via the chord-slope gap
    worst_gap, gap_at = np.inf, ""
    for j, nl in enumerate(spec.nonlins):
        top_j = sample_top(nl)
        lo_grid = np.linspace(top_j / SAMPLES, top_j * (1.0 - 1.0 / SAMPLES),
                              SAMPLES - 1)
        gaps = chord_slope_gap(nl, lo_grid, top_j)
        m = int(np.argmin(gaps))
        if _worse(gaps[m], worst_gap):
            worst_gap = float(gaps[m])
            gap_at = f"u_lo={lo_grid[m]:.6g}, u_hi={top_j:.6g} (nonlin {j + 1})"
    checks.append(ConditionCheck(
        "III", worst_gap > tol, gap_at, worst_gap, tol,
        "smallest chord-slope gap" if worst_gap > tol else "concavity not strict"))

    # condition IV: scaling inequality on [0,1] x [eta_j, xi_j]
    worst_iv, iv_at = np.inf, ""
    for j, nl in enumerate(spec.nonlins):
        lo = float(eta[j])
        hi = max(float(xi_ref[j]), lo * (1.0 + 1e-9))
        if hi <= lo * (1.0 + 1e-12):
            hi = 2.0 * lo
        top = sample_top(nl)
        if top < hi:
            # the table ends inside the nominal rectangle; probe what it
            # covers (condition II separately flags the coverage gap)
            hi = top
            if hi <= lo:
                lo = hi / 2.0
        _, margin = check_condition_iv(nl, spec.phi, lo, hi, tol)
        if _worse(margin, worst_iv):
            worst_iv, iv_at = margin, f"nonlin {j + 1} on [{lo:.6g}, {hi:.6g}]"
    checks.append(ConditionCheck(
        "IV", worst_iv >= -tol, iv_at, worst_iv, tol, xi_note))

    assert [c.condition for c in checks] == list(CONDITION_IDS)
    return ValidationReport(spec=spec, scalars=scalars, eta=eta, excess=excess, xi=xi,
                            majorant_error=majorant_error, checks=tuple(checks))
