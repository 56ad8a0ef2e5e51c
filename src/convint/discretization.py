"""Grid, truncation choice, and the discrete convolution operator.

The field lives on a uniform symmetric grid over [-R, R] and is continued by
the constant vector eta beyond it (the solution tends to eta at infinity, so
constant continuation is the right closure; zero would inject O(1) error).
One application of the integral operator splits into three parts:

  regular     trapezoid product weights, end-corrected to third order,
              against the kernel lag table; the plan stores the table's
              spectrum, so an application is N forward real FFTs, one
              contraction over j per frequency, and N inverse FFTs (the
              tests hold it to direct summation at 1e-12);
  singular    the excess (mu - 1) is integrated exactly per cell (moments
              m0, m1) against a linear model of the smooth cofactor
              K(x - t) G(f(t)), which lands nonnegative per-node weights
              omega that simply add to the trapezoid weights;
  tail        analytic kernel tail masses beyond [-R, R] multiply the
              continuation values G_j(eta_j).

All quadrature weights are nonnegative by construction and asserted; that is
what lets the solver's monotone-iteration arguments survive discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft

from .errors import SolveError
from .kernels import kernel_eval, kernel_tail_mass, kernel_tail_one_sided
from .nonlinearities import g_eval
from .weights import excess_tail_mass, excess_weighted_integral

__all__ = [
    "Grid",
    "FieldVector",
    "OperatorPlan",
    "QuadratureError",
    "build_grid",
    "constant_field",
    "choose_truncation",
    "build_plan",
    "apply_operator",
    "estimate_quadrature_error",
]


@dataclass(frozen=True)
class Grid:
    """Uniform nodes on [-R, R]; 0 is always a node and the node set is
    bitwise symmetric (each x has an exact mirror -x)."""

    r: float
    n_cells: int
    h: float
    nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1


def build_grid(r: float, n_cells: int) -> Grid:
    r = float(r)
    if not (r > 0.0):
        raise ValueError("truncation radius must be positive")
    if n_cells < 2 or n_cells % 2 != 0:
        raise ValueError("n_cells must be even and at least 2")
    half = np.linspace(0.0, r, n_cells // 2 + 1)
    nodes = np.concatenate([-half[::-1][:-1], half])
    nodes.setflags(write=False)
    return Grid(r=r, n_cells=n_cells, h=2.0 * r / n_cells, nodes=nodes)


@dataclass
class FieldVector:
    """N sampled components on a grid plus the constant continuation vector."""

    grid: Grid
    values: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.boundary = np.asarray(self.boundary, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.n_nodes:
            raise ValueError("values must be N x (n_cells + 1)")
        if self.boundary.shape != (self.values.shape[0],):
            raise ValueError("boundary must have one entry per component")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0.0):
            raise ValueError("field values must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def constant_field(grid: Grid, levels, boundary=None) -> FieldVector:
    levels = np.asarray(levels, dtype=float)
    values = np.repeat(levels[:, None], grid.n_nodes, axis=1)
    bv = levels if boundary is None else np.asarray(boundary, dtype=float)
    return FieldVector(grid=grid, values=values, boundary=bv.copy())


def choose_truncation(kernel, weights, eta, tol_trunc: float, g_sup: float,
                      r_start: float = 1.0, max_doublings: int = 40) -> float:
    """Smallest doubling R with both truncation criteria met at R/2.

    Criteria: the worst kernel tail mass beyond R/2, scaled by the largest
    nonlinearity value g_sup the solve can produce, and each weight's excess
    mass beyond R/2, must both drop to tol_trunc. Judging at R/2 leaves the
    outer half of the grid as a buffer where the constant continuation and
    the interior solution blend.
    """
    if not (tol_trunc > 0.0):
        raise ValueError("tol_trunc must be positive")
    if not (g_sup > 0.0):
        raise ValueError("g_sup must be positive")
    n = len(eta)
    r = float(r_start)
    for _ in range(max_doublings):
        half = r / 2.0
        worst_kernel = max(kernel_tail_mass(kernel, i, j, half)
                           for i in range(n) for j in range(n))
        kernel_ok = worst_kernel * g_sup <= tol_trunc
        weights_ok = all(excess_tail_mass(w, half) <= tol_trunc for w in weights)
        if kernel_ok and weights_ok:
            return r
        r *= 2.0
    raise SolveError(
        f"no truncation radius up to {r:g} meets tol {tol_trunc:g}; "
        "kernel or weight tails decay too slowly")


@dataclass
class OperatorPlan:
    """Precomputed tables for one grid: kernel spectrum, node weights, tails.

    kernel_hat is the real FFT of the kernel lag table at the 2 n_cells + 1
    lags -2R..2R, zero-padded to fft_len >= 2 n_cells + 1. That length keeps
    the wrap-around of the circular convolution out of the window
    [n_cells, 2 n_cells] that apply_operator reads. fft_len is stored
    because next_fast_len may return an odd length, which the spectrum's
    size fft_len // 2 + 1 cannot tell apart from the even one below it.
    """

    grid: Grid
    fft_len: int
    kernel_hat: np.ndarray     # (N, N, fft_len // 2 + 1) rfft of the lag table
    trapw: np.ndarray          # (n_cells + 1,) end-corrected trapezoid weights
    omega: np.ndarray          # (N, n_cells + 1) singular product weights
    tail_coeff: np.ndarray     # (N, N, n_cells + 1) kernel mass beyond the grid

    @property
    def n(self) -> int:
        return self.kernel_hat.shape[0]


def _regular_node_weights(h: float, m: int) -> np.ndarray:
    """Composite trapezoid weights with a third-order boundary correction.

    The correction replaces the first and last three weights by
    h * (3/8, 7/6, 23/24); every weight stays positive (monotonicity of the
    discrete operator depends on that) and the total mass is unchanged.
    Without it the plain-trapezoid boundary error, O(h^2) and concentrated
    in a kernel-width zone at +-R, swamps the true decay of the solution
    tail on domains sized for small truncation tolerances.  Grids too short
    for the stencil fall back to plain trapezoid weights.
    """
    w = np.full(m, h)
    if m >= 7:
        end = h * np.array([3.0 / 8.0, 7.0 / 6.0, 23.0 / 24.0])
        w[:3] = end
        w[-3:] = end[::-1]
    else:
        w[0] = w[-1] = h / 2.0
    return w


def build_plan(spec, grid: Grid) -> OperatorPlan:
    """Tables for apply_operator; every weight it produces is nonnegative.

    The continuation values enter at application time through the field's
    boundary vector.
    """
    n = spec.n
    nodes = grid.nodes
    m = grid.n_nodes

    # kernel lag table, bitwise even by construction from the one-sided half
    lags_half = np.linspace(0.0, 2.0 * grid.r, grid.n_cells + 1)
    kappa_sym = np.empty((n, n, 2 * grid.n_cells + 1))
    for i in range(n):
        for j in range(n):
            half = np.asarray(kernel_eval(spec.kernel, i, j, lags_half), dtype=float)
            kappa_sym[i, j] = np.concatenate([half[::-1], half[1:]])
    fft_len = next_fast_len(2 * grid.n_cells + 1, real=True)
    kernel_hat = rfft(kappa_sym, fft_len, axis=-1)

    trapw = _regular_node_weights(grid.h, m)

    # exact excess cell moments folded into per-node weights: a linear model
    # v(t) = v_l + (t - t_l)(v_{l+1} - v_l)/h integrates against the measure
    # to w_l v_l + w_{l+1} v_{l+1} with the weights below, both nonnegative
    # because t_l <= m1/m0 <= t_{l+1}
    omega = np.zeros((n, m))
    t_lo, t_hi = nodes[:-1], nodes[1:]
    for j, w_model in enumerate(spec.weights):
        m0, m1 = w_model.cell_moments_batch(nodes)
        omega[j, :-1] += (t_hi * m0 - m1) / grid.h
        omega[j, 1:] += (m1 - t_lo * m0) / grid.h

    floor = -1e-14 * max(float(np.max(omega)), 1.0)
    if np.min(omega) < floor:
        raise SolveError("negative singular quadrature weight; "
                         "excess cell moments are inconsistent")
    np.clip(omega, 0.0, None, out=omega)

    tail_coeff = np.empty((n, n, m))
    y = grid.r + nodes
    for i in range(n):
        for j in range(n):
            left = np.asarray(kernel_tail_one_sided(spec.kernel, i, j, y), dtype=float)
            tail_coeff[i, j] = left[::-1] + left
    if np.min(tail_coeff) < 0.0:
        raise SolveError("negative tail correction")

    return OperatorPlan(grid=grid, fft_len=fft_len, kernel_hat=kernel_hat,
                        trapw=trapw, omega=omega, tail_coeff=tail_coeff)


def apply_operator(plan: OperatorPlan, f: FieldVector, nonlins,
                   include_singular: bool = True) -> FieldVector:
    """One application of the discrete integral operator to the field f.

    Regular and singular parts share the kernel lag convolution (their node
    weights just add). Entry m of the full linear convolution of a weighted
    row v_j with the lag table is sum_l v_j[l] kappa_ij(x_{m - n_cells} - t_l),
    so the nodes sit at m = n_cells..2 n_cells. The tail adds the analytic
    correction for the constant continuation.
    """
    if f.grid is not plan.grid and not np.array_equal(f.grid.nodes, plan.grid.nodes):
        raise ValueError("field grid does not match the plan grid")
    if f.n != plan.n:
        raise ValueError("field component count does not match the plan")

    g_nodes = np.vstack([g_eval(nl, row) for nl, row in zip(nonlins, f.values)])
    g_bound = np.array([float(g_eval(nl, bv)) for nl, bv in zip(nonlins, f.boundary)])

    node_w = plan.trapw[None, :] + (plan.omega if include_singular else 0.0)
    v_hat = rfft(g_nodes * node_w, plan.fft_len, axis=-1)
    full = irfft(np.einsum("ijk,jk->ik", plan.kernel_hat, v_hat), plan.fft_len, axis=-1)
    m = plan.grid.n_cells
    out = full[:, m:2 * m + 1] + np.einsum("j,ijk->ik", g_bound, plan.tail_coeff)
    return FieldVector(grid=f.grid, values=out, boundary=f.boundary.copy())


@dataclass(frozen=True)
class QuadratureError:
    """Measured discretization error budget for one plan.

    regular: worst defect of the weight-free operator on its own fixed
    point (the eigenvector field), i.e. pure trapezoid-plus-tail error.
    singular: worst gap between the product-quadrature excess term and the
    reference weighted integral (a graded Gauss-Legendre rule after the
    substitution that removes the singularity), probed at the center node
    where the kernel peak sits on the singularity.
    dropped_tail: bound on the excess mass beyond the grid that the plan
    ignores (only the kernel continuation is corrected analytically).
    """

    regular: float
    singular: float
    dropped_tail: float

    @property
    def total(self) -> float:
        return self.regular + self.singular + self.dropped_tail


def estimate_quadrature_error(spec, plan: OperatorPlan, eta, xi, scalars) -> QuadratureError:
    """Budget of plan against spec; scalars are the kernel scalars of
    spec.kernel, whose sup matrix bounds the dropped excess tail."""
    grid = plan.grid
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)

    f_eta = constant_field(grid, eta)
    w_eta = apply_operator(plan, f_eta, spec.nonlins, include_singular=False)
    e_reg = float(np.max(np.abs(w_eta.values - eta[:, None])))

    e_sing = 0.0
    for i in range(spec.n):
        for j in range(spec.n):
            ref = 2.0 * eta[j] * excess_weighted_integral(
                spec.weights[j],
                lambda t, i=i, j=j: kernel_eval(spec.kernel, i, j, t),
                grid.r)
            k_nodes = np.asarray(kernel_eval(spec.kernel, i, j, grid.nodes), dtype=float)
            disc = eta[j] * float(plan.omega[j] @ k_nodes)
            e_sing = max(e_sing, abs(ref - disc))

    g_xi = np.array([float(g_eval(nl, x)) for nl, x in zip(spec.nonlins, xi)])
    dropped = np.array([excess_tail_mass(w, grid.r) for w in spec.weights])
    e_tail = float(np.max(scalars.sup @ (dropped * g_xi)))

    return QuadratureError(regular=e_reg, singular=e_sing, dropped_tail=e_tail)
