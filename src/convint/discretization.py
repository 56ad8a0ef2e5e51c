"""Grid, truncation choice, and the discrete convolution operator.

The field lives on a uniform symmetric grid over [-R, R] and is continued by
the constant vector eta beyond it (the solution tends to eta at infinity, so
constant continuation is the right closure; zero would inject O(1) error).
Kernel, weights and maps all depend on |x|, so the solution is even: a
field is the (N, m + 1) array of its values at the x >= 0 nodes,
grid.half_nodes, and its value at -x is its value at x by construction.
The operator plan keeps the same half of every table. One application of
the integral operator splits into three parts:

  regular     trapezoid product weights, end-corrected to third order,
              against the kernel lag table. With m = n_cells // 2 and the
              kernel's reach L (the last lag-table index that holds a
              nonzero value), the plan uses one of two exact layouts:
              folded: the even sum at a node x >= 0 splits into a Toeplitz
              convolution over t = 0..m (lags -m..m) and a Hankel
              correlation over t = 1..m (lags 1..2m), both exact circular
              sums of length p >= 2m, whose spectra T and H give the image
              spectrum T v^ + H conj(v^); compact: each row is preceded by
              its first L cells in mirrored order, so the sum over
              t = -L..m is one Toeplitz sum against lags -L..L, exact at
              p >= m + 2L + 1, with spectrum T v^. The plan takes the
              compact layout when next_fast_len(m + 2L + 1) is shorter than
              next_fast_len(n_cells), so p follows the kernel's reach; an
              application is N real FFTs of length p, products with the
              spectra per frequency, and N inverse FFTs (the tests hold
              both layouts to direct summation at 1e-12).
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
    "OperatorPlan",
    "QuadratureError",
    "build_grid",
    "choose_truncation",
    "build_plan",
    "apply_operator",
    "estimate_quadrature_error",
]

R_DOUBLINGS = 40   # of the truncation radius from R = 1, at most


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


def choose_truncation(kernel, weights, tol_trunc: float, g_sup: float) -> float:
    """Smallest R = 1, 2, 4, ... with both truncation criteria met at R/2.

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
    n = kernel.n
    r = 1.0
    for _ in range(R_DOUBLINGS):
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
    m = n_cells // 2; the x < 0 columns are their mirror image. reach is
    L, the last index of the lag table (lags 0..2R) that holds a nonzero
    value; only exact zeros count. Of the two layouts below the plan takes
    the compact one when next_fast_len(m + 2L + 1) < next_fast_len(n_cells),
    and the folded one otherwise; hankel is None exactly in the compact one.
    Both hold in toeplitz the real spectrum T of lags -k..k, k = min(L, m).

    Folded layout: with the weighted row v halved at x = 0 and padded to
    fft_len = p >= 2m, the regular sum at node x is a Toeplitz convolution
    of v with the lag table at the residues of lags -m..m plus a Hankel
    correlation of v with it at the residues of lags 1..2m. Both are exact:
    at p = 2m the lags +-m share a residue and the value K(m), and lag 2m
    wraps to residue 0, which no other Hankel lag reaches. A correlation's
    spectrum multiplies the conjugate, so the sums have the spectrum
    T v^ + H conj(v^), H = hankel. center_fix restores, at x = 0, K(0) in
    place of the Hankel value at residue 0 that the halved v_0 picked up.

    Compact layout (hankel and center_fix None): the row v over cells 0..m
    is preceded by its cells L..1, so it runs over t = -L..m, and the sum
    at x = 0..m is the plain Toeplitz sum against lags -L..L, read at
    positions L..L + m of the circular sum. The offsets x - t run over
    [-m, m + L], and once p >= m + 2L + 1 none outside -L..L shares a
    residue with a lag inside it, so the sum is exact with no Hankel table,
    center fix or halving.

    Factored plan (mix set): K_ij = mix_ij k, the spectra and center_fix
    are those of the one profile k, shapes (p // 2 + 1,) and (), and an
    application transforms the mixed rows mix v. Per-entry plan (mix None,
    for a kernel without a shared profile): shapes (N, N, p // 2 + 1) and
    (N, N), one lag table per entry, contracted over j per frequency; L is
    the largest reach over the entries.
    """

    grid: Grid
    fft_len: int               # p, 5-smooth: >= 2m folded, >= m + 2L + 1 compact
    reach: int                 # L, in cells
    mix: np.ndarray            # (N, N) coefficients of the profile, or None
    trapw: np.ndarray          # (m + 1,) end-corrected trapezoid weights
    omega: np.ndarray          # (N, m + 1) singular product weights
    tail: np.ndarray           # (N, m + 1) kernel mass beyond the grid times G(boundary)
    toeplitz: np.ndarray       # T, real
    hankel: np.ndarray = None       # H, complex (folded only)
    center_fix: np.ndarray = None   # K(0) minus the Hankel table at residue 0 (folded only)


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


def _reach(row) -> int:
    """Last index of the lag table row that holds a nonzero value."""
    nonzero = np.flatnonzero(row)
    return int(nonzero[-1]) if nonzero.size else 0


def _lag_spectra(row, reach: int, p: int, folded: bool):
    """(toeplitz, hankel, center_fix) of one lag table row at lags 0..2R at
    fft length p: the real spectrum of lags -k..k, k = min(reach, m), and in
    the folded layout the complex spectrum of lags 1..2m and the fix at
    x = 0 (both None in the compact layout)."""
    k = min(reach, row.size // 2)
    toeplitz = np.zeros(p)
    toeplitz[:k + 1] = row[:k + 1]
    toeplitz[p - k:] = row[k:0:-1]
    # the plan keeps a copy of .real (a view of the complex spectrum), made
    # after the padded row is freed so that it takes the row's place in the
    # heap; above it, bench coupled's peak resident memory rose by 0.3 MiB
    toeplitz = rfft(toeplitz)
    t_hat = toeplitz.real.copy()
    if not folded:
        return t_hat, None, None
    hankel = np.zeros(p)
    top = min(p, row.size)
    hankel[1:top] = row[1:top]
    # lag p, where the table reaches it (p = 2m), wraps to residue 0
    hankel[0] = row[p] if p < row.size else 0.0
    return t_hat, rfft(hankel), row[0] - hankel[0]


def _kernel_spectra(kernel, factors, grid: Grid):
    """(fft_len, reach, spectra) of the plan's kernel, in the layout with
    the shorter transform; spectra is _lag_spectra's triple for the profile
    when factors = kernel_factors(kernel) is set, for every entry otherwise,
    each part stacked to (N, N, ...).

    In paired runs with each layout forced, the shorter transform also gave
    the faster application and solve on either side of the rule. Row
    (j, i), j > i, reuses the spectra of row (i, j) when its lag table is
    bitwise the same.
    """
    model, n = (kernel, kernel.n) if factors is None else (factors[1], 1)
    lags = np.linspace(0.0, 2.0 * grid.r, grid.n_cells + 1)
    # each lag table row is evaluated once, and dropped once its spectra are built
    rows = {(i, j): kernel_eval(model, i, j, lags) for i in range(n) for j in range(n)}
    reach = max(_reach(row) for row in rows.values())
    p = next_fast_len(grid.n_cells)
    compact_len = next_fast_len(grid.n_cells // 2 + 2 * reach + 1)
    folded = compact_len >= p
    p = p if folded else compact_len
    spectra = {}
    for i in range(n):
        for j in range(i, n):
            lag_row = rows.pop((i, j))
            spectra[i, j] = spectra[j, i] = _lag_spectra(lag_row, reach, p, folded)
            if j > i:
                mirror = rows.pop((j, i))
                if not np.array_equal(mirror, lag_row):
                    spectra[j, i] = _lag_spectra(mirror, reach, p, folded)
    if factors is not None:
        return p, reach, spectra[0, 0]
    return p, reach, [None if part is None else
                      np.array([[spectra[i, j][k] for j in range(n)] for i in range(n)])
                      for k, part in enumerate(spectra[0, 0])]


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

    factors = kernel_factors(spec.kernel)
    mix, unit = (None, None) if factors is None else factors
    p, reach, (toeplitz, hankel, center_fix) = _kernel_spectra(spec.kernel, factors, grid)
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

    # both guards are written to fail on NaN
    floor = -1e-14 * max(float(np.max(omega)), 1.0)
    if not (np.min(omega) >= floor):
        raise SolveError("negative singular quadrature weight; "
                         "excess cell moments are inconsistent")
    np.clip(omega, 0.0, None, out=omega)

    # kernel mass beyond -R and beyond R, at distances R - x and R + x,
    # times the continuation values
    g_bound = np.array([float(g_eval(nl, b)) for nl, b in zip(spec.nonlins, boundary)])

    def one_sided(model, i, j):
        coeff = kernel_tail_one_sided(model, i, j, grid.r - nodes)
        coeff += kernel_tail_one_sided(model, i, j, grid.r + nodes)
        if not (np.min(coeff) >= 0.0):
            raise SolveError("negative tail correction")
        return coeff

    if mix is None:
        tail = np.zeros((n, half + 1))
        for i in range(n):
            for j in range(n):
                tail[i] += g_bound[j] * one_sided(spec.kernel, i, j)
    else:
        tail = (mix @ g_bound)[:, None] * one_sided(unit, 0, 0)

    return OperatorPlan(grid=grid, fft_len=p, reach=reach, mix=mix, trapw=trapw,
                        omega=omega, tail=tail, toeplitz=toeplitz, hankel=hankel,
                        center_fix=center_fix)


def _product(plan: OperatorPlan, table, x):
    """table times the row spectra x per frequency, contracted over j in a
    per-entry plan; in a factored one it overwrites x."""
    if plan.mix is None:
        return np.einsum("ijk,jk->ik", table, x)
    x *= table
    return x


def apply_operator(plan: OperatorPlan, values, nonlins,
                   include_singular: bool = True) -> np.ndarray:
    """One application of the discrete integral operator to the even field
    values, the (N, m + 1) array at plan.grid.half_nodes; returns the image
    as an array of the same shape. g_eval rejects a negative or non-finite
    input value.

    Regular and singular parts share the kernel lag convolution (their node
    weights just add). The weighted rows, mixed by plan.mix when the kernel
    factors, go through one real FFT of length plan.fft_len, the product
    T v^ + H conj(v^) with the plan's spectra (T v^ alone in the compact
    layout; see OperatorPlan) and one inverse FFT; the plan's tail adds the
    analytic correction for the constant continuation.
    """
    if np.shape(values) != plan.omega.shape:
        raise ValueError(f"field shape {np.shape(values)} is not the plan's "
                         f"{plan.omega.shape}, N x (n_cells // 2 + 1)")
    v = np.vstack([g_eval(nl, row) for nl, row in zip(nonlins, values)])
    v *= (plan.trapw + plan.omega) if include_singular else plan.trapw
    if plan.mix is not None:
        v = plan.mix @ v
    folded = plan.hankel is not None
    if folded:
        v[:, 0] *= 0.5
    # the compact row is preceded by its mirrored cells L..1: sums start at L
    start = 0 if folded else plan.reach
    v_hat = rfft(v if folded else np.concatenate([v[:, start:0:-1], v], axis=1),
                 n=plan.fft_len, axis=-1)
    # the Hankel sum is a correlation, so its spectrum multiplies conj(v_hat)
    hankel_part = _product(plan, plan.hankel, v_hat.conj()) if folded else None
    u_hat = _product(plan, plan.toeplitz, v_hat)
    if folded:
        u_hat += hankel_part
    out = irfft(u_hat, n=plan.fft_len, axis=-1)[:, start:start + plan.trapw.size] + plan.tail
    if folded:
        out[:, 0] += np.dot(plan.center_fix, v[:, 0])
    return out


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
    slack: the excursion each solve guard allows, ten times the total.
    """

    regular: float
    singular: float
    dropped_tail: float

    @property
    def total(self) -> float:
        return self.regular + self.singular + self.dropped_tail

    @property
    def slack(self) -> float:
        return 10.0 * self.total


def estimate_quadrature_error(spec, plan: OperatorPlan, eta, xi, scalars) -> QuadratureError:
    """Budget of plan against spec; scalars are the kernel scalars of
    spec.kernel, whose sup matrix bounds the dropped excess tail."""
    grid = plan.grid
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)

    f_eta = np.repeat(eta[:, None], grid.half_nodes.size, axis=1)
    w_eta = apply_operator(plan, f_eta, spec.nonlins, include_singular=False)
    e_reg = float(np.max(np.abs(w_eta - eta[:, None])))

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
