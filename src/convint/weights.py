"""Weight functions mu_j(t) > 1 with an integrable singularity of the excess.

Only the excess mu - 1 enters the computation. It is positive, summable over
the line, and may blow up like |t|^(-gamma), gamma in [0, 1), at t = 0. Each
model provides

  * pointwise evaluation (with a domain error exactly at the singular point),
  * the total excess integral w = int (mu - 1) dt,
  * exact cell moments m0 = int_cell (mu - 1) dt and m1 = int_cell t (mu - 1) dt
    over cells of the nonnegative axis (the weight is even), which the
    discretization uses as a product-quadrature measure,
  * tail masses outside [-T, T],
  * weighted integrals int_0^hi fn(t) (mu - 1)(t) dt, all by one rule: with
    mu - 1 = s(t) t^-gamma and s regular, u = t^(1-gamma) removes the
    singular factor and a Gauss-Legendre rule in u integrates the rest on
    panels graded dyadically toward t = 0.

Built-ins:

  ExpSqrtWeight:   mu(t) = 1 + eps exp(-|t|) / sqrt(|t|).
                   w = 2 eps sqrt(pi); moments and tails from the
                   regularized incomplete gamma functions at shapes 1/2 and
                   3/2, in closed form through erf and erfc.
  RationalWeight:  mu(t) = 1 + eps / ((1 + t^2) |t|^alpha), alpha in (0, 1).
                   w = eps pi / cos(pi alpha / 2); moments by a
                   desingularizing substitution u = t^(1-alpha) and a fixed
                   Gauss rule on the (smooth) transformed integrand; tails
                   by the same rule, beyond t = 1 after t = 1/v.
  TabulatedExcessWeight: samples of mu - 1 with a declared singularity
                   exponent gamma; the regular factor s(t) = (mu-1)|t|^gamma
                   is interpolated linearly and integrated against |t|^-gamma
                   in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _special
from ._tables import increasing, read_table

SQRT_PI = math.sqrt(math.pi)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)

__all__ = [
    "ExcessIntegrals",
    "ExpSqrtWeight",
    "RationalWeight",
    "TabulatedExcessWeight",
    "excess_integral",
    "excess_tail_mass",
    "excess_weighted_integral",
    "build_b_matrix",
    "load_tabulated_excess",
]


@dataclass(frozen=True)
class ExcessIntegrals:
    """Excess masses w_j and the derived matrix b_ij = w_j * sup K_ij."""

    w: np.ndarray
    b: np.ndarray


class ExpSqrtWeight:
    """mu(t) = 1 + eps * exp(-|t|) / sqrt(|t|); inverse-square-root singularity."""

    def __init__(self, eps):
        eps = float(eps)
        if not (eps >= 0.0) or not math.isfinite(eps):
            raise ValueError("eps must be finite and nonnegative")
        self.eps = eps
        self.gamma_exponent = 0.5

    def excess(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t == 0.0):
            raise ValueError("weight is singular at t = 0")
        a = np.abs(t)
        out = self.eps * np.exp(-a) / np.sqrt(a)
        return out if out.ndim else float(out)

    def excess_integral_closed(self) -> float:
        return 2.0 * self.eps * SQRT_PI

    def excess_tail(self, t_from: float) -> float:
        # Q(1/2, t) = erfc(sqrt t)
        return 2.0 * self.eps * SQRT_PI * math.erfc(math.sqrt(t_from))

    def _mass_diff(self, edges, k, shape):
        # int e^-t t^(shape-1) dt over each cell in units of Gamma(shape):
        # differences of P at the edges of the first k cells (lo < 1), of
        # the complementary Q beyond, which keeps relative precision there
        p = _special.gammainc(shape, edges[:k + 1])
        q = _special.gammaincc(shape, edges[k:])
        out = np.concatenate([p[1:] - p[:-1], q[:-1] - q[1:]])
        out *= self.eps * math.gamma(shape)
        return out

    def cell_moments_batch(self, edges):
        edges = np.asarray(edges, dtype=float)
        lo, _ = _cells(edges)
        k = int(np.searchsorted(lo, 1.0))       # lo increases
        return self._mass_diff(edges, k, 0.5), self._mass_diff(edges, k, 1.5)

    def weighted_integral(self, fn, hi: float) -> float:
        return _regular_integral(fn, lambda t: self.eps * np.exp(-t), 0.5,
                                 _graded_edges(hi))

    def with_eps(self, eps):
        return ExpSqrtWeight(eps)


class RationalWeight:
    """mu(t) = 1 + eps / ((1 + t^2) |t|^alpha), alpha in (0, 1)."""

    def __init__(self, eps, alpha):
        eps = float(eps)
        alpha = float(alpha)
        if not (eps >= 0.0) or not math.isfinite(eps):
            raise ValueError("eps must be finite and nonnegative")
        if not (0.0 < alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        self.eps = eps
        self.alpha = alpha
        self.gamma_exponent = alpha
        self._beta = 1.0 / (1.0 - alpha)

    def excess(self, t):
        t = np.asarray(t, dtype=float)
        if np.any(t == 0.0):
            raise ValueError("weight is singular at t = 0")
        a = np.abs(t)
        out = self.eps / ((1.0 + t * t) * np.power(a, self.alpha))
        return out if out.ndim else float(out)

    def excess_integral_closed(self) -> float:
        return self.eps * math.pi / math.cos(math.pi * self.alpha / 2.0)

    def _moment(self, x: float, k: float) -> float:
        # eps int_0^x v^k / (1 + v^2) dv, k > -1: the rule with gamma = -k
        return _regular_integral(np.ones_like, lambda v: self.eps / (1.0 + v * v), -k,
                                 _graded_edges(x))

    def excess_tail(self, t_from: float) -> float:
        if t_from <= 0.0:
            return self.excess_integral_closed()
        if t_from >= 1.0:
            # t = 1/v: 2 eps int_0^x v^alpha / (1 + v^2) dv with x = 1/t_from
            return 2.0 * self._moment(1.0 / t_from, self.alpha)
        # the same from t = 1 on, plus int_t^1 s^-alpha / (1 + s^2) ds =
        # (1 - t^q) / q - int_t^1 s^(2-alpha) / (1 + s^2) ds, q = 1 - alpha:
        # no two terms cancel, as the total less the head would for alpha
        # near 1, and no 1/t_from overflows as t_from -> 0
        q, k = 1.0 - self.alpha, 2.0 - self.alpha
        inner = (-self.eps * math.expm1(q * math.log(t_from)) / q
                 - self._moment(1.0, k) + self._moment(t_from, k))
        return 2.0 * (inner + self._moment(1.0, self.alpha))

    def cell_moments_batch(self, edges):
        lo, hi = _cells(edges)
        b = self._beta
        u0 = np.power(lo, 1.0 - self.alpha)
        u1 = np.power(hi, 1.0 - self.alpha)
        mid = 0.5 * (u1 + u0)
        half = 0.5 * (u1 - u0)
        u = mid[:, None] + half[:, None] * _GL_NODES[None, :]
        ub = np.power(u, b)
        den = 1.0 + ub * ub
        m0 = self.eps * b * half * ((1.0 / den) @ _GL_WEIGHTS)
        m1 = self.eps * b * half * ((ub / den) @ _GL_WEIGHTS)
        return m0, m1

    def weighted_integral(self, fn, hi: float) -> float:
        return _regular_integral(fn, lambda t: self.eps / (1.0 + t * t), self.alpha,
                                 _graded_edges(hi))

    def with_eps(self, eps):
        return RationalWeight(eps, self.alpha)


class TabulatedExcessWeight:
    """Samples of mu - 1 at t >= 0 with a declared singularity exponent.

    The weight is even, so the table covers the nonnegative axis only.  The
    regular factor s(t) = (mu - 1)(t) |t|^gamma is interpolated linearly
    between samples; cells beyond the sampled support contribute nothing.
    """

    def __init__(self, t, values, gamma):
        t = np.asarray(t, dtype=float)
        values = np.asarray(values, dtype=float)
        gamma = float(gamma)
        if not (0.0 <= gamma < 1.0):
            raise ValueError("gamma must lie in [0, 1)")
        if t.ndim != 1 or t.size < 2 or not increasing(t):
            raise ValueError("t samples must be finite and strictly increasing, at least two")
        if t[0] < 0.0:
            raise ValueError("samples must lie on the nonnegative axis; "
                             "the weight is even in t")
        if gamma > 0.0 and np.any(t == 0.0):
            raise ValueError("samples at t = 0 are not representable with gamma > 0")
        if not np.all(np.isfinite(values)) or np.any(values < 0.0):
            raise ValueError("excess samples must be finite and nonnegative")
        self.t = t
        self.values = values
        self.gamma_exponent = gamma
        self._s = values * np.power(np.abs(t), gamma)

    def _s_at(self, t):
        return np.interp(t, self.t, self._s)

    def excess(self, t):
        t = np.asarray(t, dtype=float)
        if self.gamma_exponent > 0.0 and np.any(t == 0.0):
            raise ValueError("weight is singular at t = 0")
        a = np.abs(t)
        inside = (a >= self.t[0]) & (a <= self.t[-1])
        safe = np.where(a == 0.0, 1.0, a)
        out = np.where(inside, self._s_at(a) * np.power(safe, -self.gamma_exponent),
                       0.0)
        return out if out.ndim else float(out)

    def cell_moments_batch(self, edges):
        # clip to the support; a cell outside it clips to zero width and
        # contributes nothing
        lo, hi = (np.clip(e, self.t[0], self.t[-1]) for e in _cells(edges))
        s_lo = self._s_at(lo)
        slope = self._s_at(hi)
        slope -= s_lo       # 0 on a zero-width cell, which the divide skips
        np.divide(slope, hi - lo, out=slope, where=hi > lo)
        g = self.gamma_exponent

        def moment(q):      # (hi^q - lo^q) / q = int_lo^hi t^(q - 1) dt
            out = np.power(hi, q)
            out -= np.power(lo, q)
            out /= q
            return out

        # m0 = s_lo i0 + slope (i1 - lo i0), m1 = s_lo i1 + slope (i2 - lo i1)
        # with i_k the moment of t^(k - gamma). The steps run in place and
        # reuse buffers: plain expressions hold a dozen cell-sized arrays at
        # once, which showed in the peak memory of a 32768-cell plan
        i0, i1 = moment(1.0 - g), moment(2.0 - g)
        m0 = lo * i0
        np.subtract(i1, m0, out=m0)
        m0 *= slope
        i0 *= s_lo
        m0 += i0
        m1 = np.power(hi, 3.0 - g, out=i0)      # i2, in the buffers of i0 and hi
        m1 -= np.power(lo, 3.0 - g, out=hi)
        m1 /= 3.0 - g
        m1 -= np.multiply(lo, i1, out=hi)
        m1 *= slope
        i1 *= s_lo
        m1 += i1
        return m0, m1

    def excess_integral_closed(self) -> float:
        # the table covers t >= 0; the even extension doubles the mass
        m0, _ = self.cell_moments_batch(self.t)
        return 2.0 * float(np.sum(m0))

    def excess_tail(self, t_from: float) -> float:
        # integrate outward along the table's own cells; a single wide cell
        # would misrepresent the curve through its linear model
        if t_from >= self.t[-1]:
            return 0.0
        if t_from <= self.t[0]:
            return self.excess_integral_closed()
        edges = np.concatenate([[t_from], self.t[self.t > t_from]])
        m0, _ = self.cell_moments_batch(edges)
        return 2.0 * float(np.sum(m0))

    def weighted_integral(self, fn, hi: float) -> float:
        # the table nodes are the panel edges: s is linear inside each cell,
        # so the rule is exact to roundoff there
        top = min(hi, self.t[-1])
        lo = self.t[0]
        if top <= lo:
            return 0.0
        edges = np.concatenate([[lo], self.t[(self.t > lo) & (self.t < top)],
                                [top]])
        return _regular_integral(fn, self._s_at, self.gamma_exponent, edges)


def _graded_edges(hi: float):
    """Panel edges on [0, hi], dyadically graded toward 0 in t.

    Sixty halvings below hi, two panels per level, then one panel down to
    0: _regular_integral maps each panel to u = t^(1-gamma), where t(u) is
    not smooth at u = 0 unless 1/(1-gamma) is an integer, and a kernel with
    a cusp at the origin needs the same refinement. Each panel above the
    first ends at most 3/2 times where it starts, whatever gamma is.
    """
    r = np.ldexp(1.0, -np.arange(61))
    return hi * np.concatenate([[0.0], np.sort(np.concatenate([r, 0.75 * r[:-1]]))])


def _regular_integral(fn, s, gamma: float, edges) -> float:
    """int fn(t) (mu-1)(t) dt from edges[0] to edges[-1], (mu-1) = s(t) t^-gamma.

    gamma < 1; a negative gamma is a zero of the integrand at t = 0. With
    p = 1 - gamma and u = t^p the integral is (1/p) int fn(t) s(t) du,
    t = u^(1/p): a 16-point Gauss-Legendre rule on each panel between
    consecutive edges (mapped to u) evaluates it.
    """
    p = 1.0 - gamma
    ue = np.power(edges, p)
    mid, halfw = 0.5 * (ue[:-1] + ue[1:]), 0.5 * (ue[1:] - ue[:-1])
    t = np.power(mid[:, None] + halfw[:, None] * _GL16_NODES, 1.0 / p).ravel()
    f = (np.asarray(fn(t), dtype=float) * s(t)).reshape(-1, _GL16_NODES.size)
    return float(np.sum(halfw * np.sum(_GL16_WEIGHTS * f, axis=1))) / p


def _cells(edges):
    """(lo, hi) of each cell between consecutive edges.

    The weights are even, so cells lie on the nonnegative axis; a negative
    or non-increasing edge raises ValueError.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    if np.any(hi <= lo):
        raise ValueError("cell edges must increase")
    if np.any(lo < 0.0):
        raise ValueError("cell edges must be nonnegative; the weight is even in t")
    return lo, hi


def excess_integral(model) -> float:
    """Total excess mass w = int (mu - 1) dt over the whole line."""
    return float(model.excess_integral_closed())


def excess_tail_mass(model, t_from: float) -> float:
    """Excess mass outside [-t_from, t_from]."""
    if t_from < 0.0:
        raise ValueError("t_from must be nonnegative")
    return float(model.excess_tail(t_from))


def excess_weighted_integral(model, fn, hi: float) -> float:
    """int_0^hi fn(t) (mu - 1)(t) dt with the singularity handled analytically.

    fn takes an array of t. Reference-quality route used for error estimation
    and cross-checks.
    """
    return float(model.weighted_integral(fn, hi))


def build_b_matrix(weights, scalars) -> ExcessIntegrals:
    """b_ij = w_j * sup K_ij from the excess masses and kernel suprema."""
    n = scalars.n
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    w = np.array([excess_integral(m) for m in weights], dtype=float)
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("excess integrals must be finite and nonnegative")
    b = scalars.sup * w[None, :]
    return ExcessIntegrals(w=w, b=b)


def load_tabulated_excess(path) -> TabulatedExcessWeight:
    """Read a CSV with columns t, mu_minus_1 and a '# gamma=...' metadata line.

    Tables without the declared singularity exponent are refused.
    """
    with read_table(path, "gamma") as (header, data, gamma):
        if gamma is None:
            raise ValueError("missing '# gamma=...' metadata line")
        if header[:2] != ["t", "mu_minus_1"]:
            raise ValueError("expected columns t, mu_minus_1")
        return TabulatedExcessWeight(data[:, 0], data[:, 1], gamma)
