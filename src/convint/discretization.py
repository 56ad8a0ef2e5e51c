"""Grid, truncation choice, and the discrete convolution operator.

The field lives on a uniform symmetric grid over [-R, R] and is continued by
the constant vector eta beyond it (the solution tends to eta at infinity, so
constant continuation is the right closure; zero would inject O(1) error).
Kernel, weights and maps all depend on |x|, so the solution is even: a
FieldVector stores only the x >= 0 nodes, and its value at -x is its value
at x by construction. The operator plan keeps the same half of every table.
One application of the integral operator splits into three parts:

  regular     trapezoid product weights, end-corrected to third order,
              against the kernel lag table; an even row convolved with the
              even lag table is a symmetric convolution, so the plan stores
              the table's DCT-I and an application is N forward DCT-Is, one
              contraction over j per frequency, and N inverse DCT-Is (the
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
from scipy.fft import dct, idct, next_fast_len

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
    def half_nodes(self) -> np.ndarray:
        """The n_cells // 2 + 1 nodes x >= 0, from 0 to R: the columns a
        field on this grid stores."""
        return self.nodes[self.n_cells // 2:]


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
    """N even components on a grid plus the constant continuation vector.

    values holds each component at the x >= 0 nodes, grid.half_nodes; the
    value at -x is the value at x.
    """

    grid: Grid
    values: np.ndarray
    boundary: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.boundary = np.asarray(self.boundary, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.half_nodes.size:
            raise ValueError("values must be N x (n_cells // 2 + 1), the nodes x >= 0")
        if self.boundary.shape != (self.values.shape[0],):
            raise ValueError("boundary must have one entry per component")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0.0):
            raise ValueError("field values must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def constant_field(grid: Grid, levels, boundary=None) -> FieldVector:
    levels = np.asarray(levels, dtype=float)
    values = np.repeat(levels[:, None], grid.half_nodes.size, axis=1)
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
    """Precomputed tables for one grid, kept on its x >= 0 half.

    Every per-node table holds the n_cells // 2 + 1 columns of the nodes
    x >= 0; the x < 0 columns are their mirror image. kernel_hat is the DCT-I
    of the one-sided kernel lag table at the n_cells + 1 lags 0..2R,
    zero-padded to p + 1 entries with p >= n_cells and 2p a fast FFT length.
    Its inverse pair is a circular convolution of length 2p of the even
    extensions, and p >= n_cells keeps the wrap-around off the lags
    -R..2R that the x >= 0 nodes read.
    """

    grid: Grid
    kernel_hat: np.ndarray     # (N, N, p + 1) DCT-I of the one-sided lag table
    trapw: np.ndarray          # (n_cells // 2 + 1,) end-corrected trapezoid weights
    omega: np.ndarray          # (N, n_cells // 2 + 1) singular product weights
    tail_coeff: np.ndarray     # (N, N, n_cells // 2 + 1) kernel mass beyond the grid

    @property
    def n(self) -> int:
        return self.kernel_hat.shape[0]


def _regular_node_weights(h: float, n_cells: int) -> np.ndarray:
    """Composite trapezoid weights with a third-order boundary correction,
    at the n_cells // 2 + 1 nodes x >= 0 (the x < 0 weights mirror them).

    The correction replaces the three weights nearest each end by
    h * (23/24, 7/6, 3/8), outermost last; every weight stays positive
    (monotonicity of the discrete operator depends on that) and the total
    mass is unchanged. Without it the plain-trapezoid boundary error, O(h^2)
    and concentrated in a kernel-width zone at +-R, swamps the true decay of
    the solution tail on domains sized for small truncation tolerances.
    Grids too short for the stencil fall back to plain trapezoid weights.
    """
    w = np.full(n_cells // 2 + 1, h)
    if n_cells >= 6:
        w[-3:] = h * np.array([23.0 / 24.0, 7.0 / 6.0, 3.0 / 8.0])
    else:
        w[-1] = h / 2.0
    return w


def build_plan(spec, grid: Grid) -> OperatorPlan:
    """Tables for apply_operator; every weight it produces is nonnegative.

    The continuation values enter at application time through the field's
    boundary vector.
    """
    n = spec.n
    half = grid.n_cells // 2
    nodes = grid.half_nodes

    lags = np.linspace(0.0, 2.0 * grid.r, grid.n_cells + 1)
    table = np.empty((n, n, grid.n_cells + 1))
    for i in range(n):
        for j in range(n):
            table[i, j] = kernel_eval(spec.kernel, i, j, lags)
    # even 5-smooth lengths are twice the 5-smooth ones
    p = next_fast_len(grid.n_cells, real=True)
    kernel_hat = dct(table, type=1, n=p + 1, axis=-1)

    trapw = _regular_node_weights(grid.h, grid.n_cells)

    # exact excess cell moments folded into per-node weights: a linear model
    # v(t) = v_l + (t - t_l)(v_{l+1} - v_l)/h integrates against the measure
    # to w_l v_l + w_{l+1} v_{l+1} with the weights below, both nonnegative
    # because t_l <= m1/m0 <= t_{l+1}. The node x = 0 also takes the mirror
    # of its right-hand cell's weight, from the cell [-h, 0].
    omega = np.zeros((n, half + 1))
    t_lo, t_hi = nodes[:-1], nodes[1:]
    for j, w_model in enumerate(spec.weights):
        m0, m1 = w_model.cell_moments_batch(nodes)
        omega[j, :-1] += (t_hi * m0 - m1) / grid.h
        omega[j, 1:] += (m1 - t_lo * m0) / grid.h
    omega[:, 0] *= 2.0

    floor = -1e-14 * max(float(np.max(omega)), 1.0)
    if np.min(omega) < floor:
        raise SolveError("negative singular quadrature weight; "
                         "excess cell moments are inconsistent")
    np.clip(omega, 0.0, None, out=omega)

    # kernel mass beyond -R and beyond R, at distances R - x and R + x
    tail_coeff = np.empty((n, n, half + 1))
    for i in range(n):
        for j in range(n):
            tail_coeff[i, j] = kernel_tail_one_sided(spec.kernel, i, j, grid.r - nodes)
            tail_coeff[i, j] += kernel_tail_one_sided(spec.kernel, i, j, grid.r + nodes)
    if np.min(tail_coeff) < 0.0:
        raise SolveError("negative tail correction")

    return OperatorPlan(grid=grid, kernel_hat=kernel_hat, trapw=trapw,
                        omega=omega, tail_coeff=tail_coeff)


def apply_operator(plan: OperatorPlan, f: FieldVector, nonlins,
                   include_singular: bool = True) -> FieldVector:
    """One application of the discrete integral operator to the even field f.

    Regular and singular parts share the kernel lag convolution (their node
    weights just add). For an even weighted row v_j the sum
    sum_l v_j[l] kappa_ij(x - t_l) over the full grid is the symmetric
    convolution of the x >= 0 half of v_j with the one-sided lag table; the
    DCT-I pair evaluates it, and its first n_cells // 2 + 1 entries are the
    x >= 0 nodes. The tail adds the analytic correction for the constant
    continuation.
    """
    if f.grid is not plan.grid and not np.array_equal(f.grid.nodes, plan.grid.nodes):
        raise ValueError("field grid does not match the plan grid")
    if f.n != plan.n:
        raise ValueError("field component count does not match the plan")
    # the continuation value rides as one more column: one g_eval per row
    u = np.column_stack([f.values, f.boundary])
    g = np.vstack([g_eval(nl, row) for nl, row in zip(nonlins, u)])
    g_nodes, g_bound = g[:, :-1], g[:, -1]

    node_w = plan.trapw[None, :] + (plan.omega if include_singular else 0.0)
    v_hat = dct(g_nodes * node_w, type=1, n=plan.kernel_hat.shape[-1], axis=-1)
    conv = idct(np.einsum("ijk,jk->ik", plan.kernel_hat, v_hat), type=1, axis=-1)
    out = conv[:, :plan.trapw.size] + np.einsum("j,ijk->ik", g_bound, plan.tail_coeff)
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
            # both sides of the even sum, with x = 0 counted once
            k = np.asarray(kernel_eval(spec.kernel, i, j, grid.half_nodes), dtype=float)
            omega = plan.omega[j]
            disc = eta[j] * (2.0 * float(omega @ k) - omega[0] * k[0])
            e_sing = max(e_sing, abs(ref - disc))

    g_xi = np.array([float(g_eval(nl, x)) for nl, x in zip(spec.nonlins, xi)])
    dropped = np.array([excess_tail_mass(w, grid.r) for w in spec.weights])
    e_tail = float(np.max(scalars.sup @ (dropped * g_xi)))

    return QuadratureError(regular=e_reg, singular=e_sing, dropped_tail=e_tail)
