"""Grid, truncation choice, and the discrete convolution operator.

The field lives on a uniform symmetric grid over [-R, R] and is continued by
the constant vector eta beyond it (the solution tends to eta at infinity, so
constant continuation is the right closure; zero would inject O(1) error).
Kernel, weights and maps all depend on |x|, so the solution is even: a
FieldVector stores only the x >= 0 nodes, and its value at -x is its value
at x by construction. The operator plan keeps the same half of every table.
One application of the integral operator splits into three parts:

  regular     trapezoid product weights, end-corrected to third order,
              against the kernel lag table. The even sum at a node x >= 0
              splits into a Toeplitz part over t = 0..m (lags -m..m) and a
              Hankel part over t = 1..m (lags 1..2m), m = n_cells // 2;
              both are exact circular sums of length p >= 2m, so the plan
              stores their spectra and an application is N real FFTs of
              length p, products with the spectra per frequency, and N
              inverse FFTs (the tests hold it to direct summation at 1e-12).
              A kernel that factors as K_ij = mix_ij k (kernels.
              kernel_factors) needs the spectra of the one profile k: the
              rows are mixed, u = mix v, before the transform. Only a
              kernel without a shared profile (a multi-component tabulated
              one) keeps per-entry spectra and contracts over j;
  singular    the excess (mu - 1) is integrated exactly per cell (moments
              m0, m1) against a linear model of the smooth cofactor
              K(x - t) G(f(t)), which lands nonnegative per-node weights
              omega that simply add to the trapezoid weights;
  tail        analytic kernel tail masses beyond [-R, R] multiply the
              continuation values G_j(eta_j); the plan holds their sum.

All quadrature weights are nonnegative by construction and asserted; that is
what lets the solver's monotone-iteration arguments survive discretization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# numpy.fft runs the same pocketfft transforms as scipy.fft (bitwise equal
# here) and left the lower peak resident memory in paired whole-solve runs
from numpy.fft import irfft, rfft

from .errors import SolveError
from .kernels import (kernel_eval, kernel_factors, kernel_tail_mass,
                      kernel_tail_one_sided)
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
    """N even components on a grid.

    values holds each component at the x >= 0 nodes, grid.half_nodes; the
    value at -x is the value at x. The continuation beyond the grid belongs
    to the operator plan, not to the field.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.grid.half_nodes.size:
            raise ValueError("values must be N x (n_cells // 2 + 1), the nodes x >= 0")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0.0):
            raise ValueError("field values must be finite and nonnegative")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def constant_field(grid: Grid, levels) -> FieldVector:
    levels = np.asarray(levels, dtype=float)
    return FieldVector(grid=grid, values=np.repeat(levels[:, None], grid.half_nodes.size, axis=1))


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

    Every per-node table holds the m + 1 columns of the nodes x >= 0,
    m = n_cells // 2; the x < 0 columns are their mirror image. With the
    weighted row v halved at x = 0 and padded to fft_len = p >= 2m, the
    regular sum at node x is the circular Toeplitz sum of v against the lag
    table at the residues of lags -m..m plus the circular Hankel sum
    against it at the residues of lags 1..2m. Both are exact: at p = 2m the
    lags +-m share a residue and the value K(m), and lag 2m wraps to
    residue 0, which no other Hankel lag reaches. With T the (real)
    Toeplitz spectrum and c + i d the Hankel one, a row spectrum a + i b
    maps to (T + c) a + d b + i ((T - c) b + d a); the plan stores
    T + c - d, T - c - d and d, so that three real products give it as
    kernel_re a + w + i (kernel_im b + w) with w = kernel_cross (a + b).
    center_fix restores, at x = 0, K(0) in place of the Hankel value at
    residue 0 that the halved v_0 picked up.

    Factored plan (mix set): K_ij = mix_ij k, the spectra and center_fix
    are those of the one profile k, shapes (p // 2 + 1,) and (), and an
    application transforms the mixed rows mix v. Per-entry plan (mix None,
    for a kernel without a shared profile): shapes (N, N, p // 2 + 1) and
    (N, N), one lag table per entry, contracted over j per frequency.
    """

    grid: Grid
    fft_len: int               # p = next_fast_len(n_cells) >= 2m, 5-smooth
    mix: np.ndarray            # (N, N) coefficients of the profile, or None
    kernel_re: np.ndarray      # T + c - d
    kernel_im: np.ndarray      # T - c - d
    kernel_cross: np.ndarray   # d
    center_fix: np.ndarray     # K(0) minus the Hankel table at residue 0
    trapw: np.ndarray          # (m + 1,) end-corrected trapezoid weights
    omega: np.ndarray          # (N, m + 1) singular product weights
    tail: np.ndarray           # (N, m + 1) kernel mass beyond the grid times G(boundary)

    @property
    def n(self) -> int:
        return self.omega.shape[0]


def next_fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n, a length pocketfft transforms fast
    (what scipy.fft.next_fast_len(n, real=True) returns)."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        factor = odd
        while factor < best:
            # factor times the least power of two reaching n
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


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


def _lag_spectra(row, grid: Grid, p: int):
    """(kernel_re, kernel_im, kernel_cross, center_fix) of one lag table
    row at lags 0..2R, for the OperatorPlan layout at fft length p."""
    half = grid.n_cells // 2
    top = min(p, row.size)
    toeplitz, hankel = np.zeros(p), np.zeros(p)
    toeplitz[:half + 1] = row[:half + 1]
    toeplitz[p - half:] = row[half:0:-1]
    hankel[1:top] = row[1:top]
    # lag p, where the table reaches it (p = 2m), wraps to residue 0
    hankel[0] = row[p] if p < row.size else 0.0
    t_hat = rfft(toeplitz).real
    h_hat = rfft(hankel)
    return (t_hat + h_hat.real - h_hat.imag, t_hat - h_hat.real - h_hat.imag,
            h_hat.imag, row[0] - hankel[0])


def _entry_spectra(kernel, n: int, grid: Grid, lags, p: int):
    """Per-entry plan spectra, one (i, j) row at a time. Row (j, i), j > i,
    copies the spectra of row (i, j) when its lag table is bitwise the
    same."""
    tables = [np.empty((n, n, p // 2 + 1)) for _ in range(3)] + [np.empty((n, n))]
    for i in range(n):
        for j in range(i, n):
            row = kernel_eval(kernel, i, j, lags)
            spectra = mirrored = _lag_spectra(row, grid, p)
            if j > i:
                mirror = kernel_eval(kernel, j, i, lags)
                if not np.array_equal(mirror, row):
                    mirrored = _lag_spectra(mirror, grid, p)
            for table, a, b in zip(tables, spectra, mirrored):
                table[i, j], table[j, i] = a, b
    return tables


def build_plan(spec, grid: Grid, boundary) -> OperatorPlan:
    """Tables for apply_operator; every weight it produces is nonnegative.

    boundary holds the continuation values (the run's eta) that the field
    takes beyond [-R, R]; the tail table folds G_j(boundary_j) in.
    """
    n = spec.n
    half = grid.n_cells // 2
    nodes = grid.half_nodes
    boundary = np.asarray(boundary, dtype=float)
    if boundary.shape != (n,):
        raise ValueError("boundary must have one entry per component")

    lags = np.linspace(0.0, 2.0 * grid.r, grid.n_cells + 1)
    p = next_fast_len(grid.n_cells)
    factors = kernel_factors(spec.kernel)
    if factors is None:
        mix = None
        spectra = _entry_spectra(spec.kernel, n, grid, lags, p)
    else:
        mix, unit = factors
        spectra = _lag_spectra(kernel_eval(unit, 0, 0, lags), grid, p)
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

    # kernel mass beyond -R and beyond R, at distances R - x and R + x,
    # times the continuation values
    g_bound = np.array([float(g_eval(nl, b)) for nl, b in zip(spec.nonlins, boundary)])

    def one_sided(model, i, j):
        coeff = kernel_tail_one_sided(model, i, j, grid.r - nodes)
        coeff += kernel_tail_one_sided(model, i, j, grid.r + nodes)
        if np.min(coeff) < 0.0:
            raise SolveError("negative tail correction")
        return coeff

    if mix is None:
        tail = np.zeros((n, half + 1))
        for i in range(n):
            for j in range(n):
                tail[i] += g_bound[j] * one_sided(spec.kernel, i, j)
    else:
        tail = (mix @ g_bound)[:, None] * one_sided(unit, 0, 0)

    kernel_re, kernel_im, kernel_cross, center_fix = spectra
    return OperatorPlan(grid=grid, fft_len=p, mix=mix, kernel_re=kernel_re,
                        kernel_im=kernel_im, kernel_cross=kernel_cross,
                        center_fix=center_fix, trapw=trapw, omega=omega, tail=tail)


def apply_operator(plan: OperatorPlan, f: FieldVector, nonlins,
                   include_singular: bool = True) -> FieldVector:
    """One application of the discrete integral operator to the even field f.

    Regular and singular parts share the kernel lag convolution (their node
    weights just add). The weighted rows, halved at x = 0 and mixed by
    plan.mix when the kernel factors, go through one real FFT of length
    plan.fft_len; the products with the Toeplitz and Hankel spectra and one
    inverse FFT give the sum over the full grid at the x >= 0 nodes. The
    plan's tail adds the analytic correction for the constant continuation.
    """
    if f.grid is not plan.grid and not np.array_equal(f.grid.nodes, plan.grid.nodes):
        raise ValueError("field grid does not match the plan grid")
    if f.n != plan.n:
        raise ValueError("field component count does not match the plan")
    v = np.vstack([g_eval(nl, row) for nl, row in zip(nonlins, f.values)])
    v *= (plan.trapw + plan.omega) if include_singular else plan.trapw
    v[:, 0] *= 0.5
    if plan.mix is None:
        def contract(table, x):
            return np.einsum("ijk,jk->ik", table, x)
    else:
        v = plan.mix @ v
        contract = np.multiply
    v_hat = rfft(v, n=plan.fft_len, axis=-1)
    a, b = v_hat.real, v_hat.imag
    w = contract(plan.kernel_cross, a + b)
    re = contract(plan.kernel_re, a)
    re += w
    w += contract(plan.kernel_im, b)
    v_hat.real, v_hat.imag = re, w
    out = irfft(v_hat, n=plan.fft_len, axis=-1)[:, :plan.trapw.size] + plan.tail
    out[:, 0] += np.dot(plan.center_fix, v[:, 0])
    return FieldVector(grid=f.grid, values=out)


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

    # (model, its entry (a, b), weight j, scale): a factored kernel needs
    # one reference integral per weight, for its profile, which entry
    # (i, j) scales by |mix_ij|
    factors = kernel_factors(spec.kernel)
    if factors is None:
        terms = [(spec.kernel, i, j, j, 1.0) for i in range(spec.n) for j in range(spec.n)]
    else:
        terms = [(factors[1], 0, 0, j, np.abs(factors[0][:, j])) for j in range(spec.n)]
    e_sing = 0.0
    for model, a, b, j, scale in terms:
        ref = 2.0 * eta[j] * excess_weighted_integral(
            spec.weights[j], lambda t: kernel_eval(model, a, b, t), grid.r)
        # both sides of the even sum, with x = 0 counted once
        k = np.asarray(kernel_eval(model, a, b, grid.half_nodes), dtype=float)
        omega = plan.omega[j]
        disc = eta[j] * (2.0 * float(omega @ k) - omega[0] * k[0])
        e_sing = max(e_sing, float(np.max(scale * abs(ref - disc))))

    g_xi = np.array([float(g_eval(nl, x)) for nl, x in zip(spec.nonlins, xi)])
    dropped = np.array([excess_tail_mass(w, grid.r) for w in spec.weights])
    e_tail = float(np.max(scalars.sup @ (dropped * g_xi)))

    return QuadratureError(regular=e_reg, singular=e_sing, dropped_tail=e_tail)
