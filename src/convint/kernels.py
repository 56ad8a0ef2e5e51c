"""Symmetric matrix convolution kernels and their derived scalars.

A kernel is a matrix-valued even function K(tau): every entry K_ij is
positive, integrable and bounded, with K_ij = K_ji. Three derived scalar
matrices drive the rest of the pipeline:

    a_ij = integral of K_ij over the whole line   (row-integral matrix A)
    s_ij = sup of K_ij                            (attained at tau = 0
                                                   for the built-in shapes)
    m_ij = integral of tau * K_ij over [0, inf)   (first half-moment)

Built-in shapes:

  * GaussianKernel:    K_ij(tau) = c_ij exp(-tau^2) / sqrt(pi).
    Everything is closed form: a = c, s = c/sqrt(pi), m = c/(2 sqrt(pi)),
    and tails reduce to erfc.
  * ExpMixtureKernel:  K_ij(tau) = int_a^b exp(-|tau| s) L_ij(s) ds with a
    parameterized mixture density L_ij(s) = c_ij s^p exp(-q s). The s
    integral is evaluated with a fixed Gauss-Legendre rule; an infinite upper
    endpoint is truncated where the remaining mass of L/s is provably below
    a tail tolerance.
  * TabulatedKernel:   per-entry samples on tau >= 0, extended evenly,
    interpolated linearly, zero beyond the table. Scalars are exact
    integrals of the interpolant.

Factors. The Gaussian and exp-mixture shapes are a coefficient matrix times
one shared profile, K_ij(tau) = c_ij k(tau). kernel_factors returns that
split as (mix, unit): mix the (N, N) matrix c_ij, read through the
coefficient accessor _c that eval uses, and unit = model.profile(), a
1 x 1 kernel of the same shape whose only entry is k. A 1 x 1 kernel is its
own profile, with mix = [[1]]. A multi-component TabulatedKernel samples
each entry independently and has no profile; kernel_factors returns None
for it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from ._special import erfc, upper_gamma
from ._tables import increasing, read_table

SQRT_PI = math.sqrt(math.pi)
MIXTURE_NODES = 96         # of ExpMixtureKernel's Gauss-Legendre rule in s
MIXTURE_TAIL_CUT = 1e-14   # density mass it leaves beyond an infinite support's cut

__all__ = [
    "KernelScalars",
    "GaussianKernel",
    "ExpMixtureKernel",
    "TabulatedKernel",
    "kernel_eval",
    "kernel_factors",
    "kernel_scalars",
    "kernel_tail_mass",
    "kernel_tail_one_sided",
    "load_tabulated_kernel",
]


@dataclass(frozen=True)
class KernelScalars:
    """Row integrals, suprema and first half-moments of a kernel matrix."""

    a: np.ndarray
    sup: np.ndarray
    first_moment: np.ndarray

    @property
    def n(self) -> int:
        return self.a.shape[0]


def _check_coeffs(c: np.ndarray) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("coefficient matrix must be square")
    if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
        raise ValueError("coefficient entries must be finite and positive")
    if not np.allclose(c, c.T, rtol=0.0, atol=1e-13 * max(1.0, float(np.max(c)))):
        raise ValueError("coefficient matrix must be symmetric")
    return 0.5 * (c + c.T)


class GaussianKernel:
    """K_ij(tau) = c_ij * exp(-tau^2) / sqrt(pi)."""

    def __init__(self, coeffs):
        self.coeffs = _check_coeffs(coeffs)

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def _c(self, i: int, j: int) -> float:
        return float(self.coeffs[i, j])

    def eval(self, i, j, tau):
        tau = np.asarray(tau, dtype=float)
        out = self._c(i, j) / SQRT_PI * np.exp(-np.square(tau))
        return out if out.ndim else float(out)

    def scalars(self) -> KernelScalars:
        c = self.coeffs
        return KernelScalars(a=c.copy(), sup=c / SQRT_PI, first_moment=c / (2.0 * SQRT_PI))

    def one_sided_tail(self, i, j, y):
        y = np.asarray(y, dtype=float)
        out = self._c(i, j) * 0.5 * erfc(y)
        return out if out.ndim else float(out)

    def rescaled(self, factor: float) -> "GaussianKernel":
        return GaussianKernel(self.coeffs * factor)

    def profile(self) -> "GaussianKernel":
        return GaussianKernel([[1.0]])

    def sample_span(self) -> float:
        """Horizon beyond which the kernel is numerically negligible."""
        return 8.0


class ExpMixtureKernel:
    """K_ij(tau) = int_a^b exp(-|tau| s) L_ij(s) ds, L_ij(s) = c_ij s^p e^{-q s}.

    Requires a > 0 (so 1/s stays bounded), finite p >= 0 and finite q. The
    s integral is a 96-point Gauss-Legendre rule. An infinite b requires
    q > 0; the rule then ends at the first doubling of a beyond which the
    mass of s^(p-1) e^(-q s) is at most 1e-14. A density not finite on the
    rule raises ValueError.
    """

    def __init__(self, coeffs, s_lo=1.0, s_hi=2.0, power=0.0, decay=0.0):
        self.coeffs = _check_coeffs(coeffs)
        if not (s_lo > 0.0):
            raise ValueError("mixture support must start at s > 0")
        if not (0.0 <= power < math.inf):
            raise ValueError("mixture power must be finite and nonnegative")
        if not math.isfinite(decay):
            raise ValueError("mixture decay must be finite")
        if not (s_hi > s_lo):
            raise ValueError("mixture support must be a nondegenerate interval")
        self.s_lo = float(s_lo)
        self.s_hi = float(s_hi)
        self.power = float(power)
        self.decay = float(decay)
        if math.isinf(self.s_hi):
            if self.decay <= 0.0:
                raise ValueError("infinite mixture support needs exponential decay > 0")
            cut = self.s_lo
            while self._density_tail(cut) > MIXTURE_TAIL_CUT:
                cut *= 2.0
                if cut > 1e12:
                    raise ValueError("mixture tail does not decay; non-integrable input")
            hi = cut
        else:
            hi = self.s_hi
        nodes, wts = np.polynomial.legendre.leggauss(MIXTURE_NODES)
        self._s = 0.5 * (hi - self.s_lo) * nodes + 0.5 * (hi + self.s_lo)
        self._w = 0.5 * (hi - self.s_lo) * wts
        with np.errstate(over="ignore", invalid="ignore"):
            self._dens = np.power(self._s, self.power) * np.exp(-self.decay * self._s)
        if not np.all(np.isfinite(self._dens)):
            raise ValueError(f"mixture density s^power e^(-decay s) is not finite on the s "
                             f"rule [{self.s_lo:g}, {hi:g}] (power {self.power:g}, "
                             f"decay {self.decay:g})")

    def _density_tail(self, s0: float) -> float:
        # bound on int_{s0}^inf s^{p-1} e^{-q s} ds = q^-p Gamma(p, q s0)
        p, q = self.power, self.decay
        try:
            return upper_gamma(p, q * s0) * q ** -p
        except OverflowError:   # beyond the float range, so above any cut
            return math.inf

    @property
    def n(self) -> int:
        return self.coeffs.shape[0]

    def _c(self, i: int, j: int) -> float:
        return float(self.coeffs[i, j])

    def eval(self, i, j, tau):
        tau = np.asarray(tau, dtype=float)
        core = np.exp(-np.abs(tau)[..., None] * self._s) @ (self._w * self._dens)
        out = self._c(i, j) * core
        return out if out.ndim else float(out)

    def scalars(self) -> KernelScalars:
        a_core = float(np.sum(self._w * self._dens * 2.0 / self._s))
        s_core = float(np.sum(self._w * self._dens))
        m_core = float(np.sum(self._w * self._dens / self._s ** 2))
        return KernelScalars(a=self.coeffs * a_core, sup=self.coeffs * s_core,
                             first_moment=self.coeffs * m_core)

    def one_sided_tail(self, i, j, y):
        y = np.asarray(y, dtype=float)
        core = np.exp(-y[..., None] * self._s) @ (self._w * self._dens / self._s)
        out = self._c(i, j) * core
        return out if out.ndim else float(out)

    def _with_coeffs(self, coeffs) -> "ExpMixtureKernel":
        out = copy.copy(self)
        out.coeffs = coeffs
        return out

    def rescaled(self, factor: float) -> "ExpMixtureKernel":
        return self._with_coeffs(self.coeffs * factor)

    def profile(self) -> "ExpMixtureKernel":
        return self._with_coeffs(np.ones((1, 1)))

    def sample_span(self) -> float:
        # exp(-s_lo * tau) below ~1e-14 at this distance
        return 33.0 / self.s_lo


class TabulatedKernel:
    """Per-entry samples on a shared tau >= 0 grid, extended evenly to tau < 0.

    Linear interpolation between samples, zero beyond the last sample. The
    derived scalars integrate the interpolant exactly segment by segment.
    """

    def __init__(self, tau, tables):
        tau = np.asarray(tau, dtype=float)
        if tau.ndim != 1 or tau.size < 2:
            raise ValueError("need at least two tau samples")
        if tau[0] != 0.0 or not increasing(tau):
            raise ValueError("tau samples must be finite, start at 0 and increase strictly")
        tables = np.asarray(tables, dtype=float)
        if tables.ndim != 3 or tables.shape[2] != tau.size or tables.shape[0] != tables.shape[1]:
            raise ValueError("tables must have shape (n, n, len(tau))")
        if not np.all(np.isfinite(tables)) or np.any(tables <= 0.0):
            raise ValueError("tabulated kernel values must be finite and positive on the support")
        if not np.allclose(tables, np.swapaxes(tables, 0, 1)):
            raise ValueError("tabulated kernel must be index-symmetric")
        self.tau = tau
        self.tables = tables

    @property
    def n(self) -> int:
        return self.tables.shape[0]

    def eval(self, i, j, tau):
        tau = np.asarray(tau, dtype=float)
        out = np.interp(np.abs(tau), self.tau, self.tables[i, j], right=0.0)
        return out if out.ndim else float(out)

    def _segment_integrals(self, i, j):
        t, v = self.tau, self.tables[i, j]
        dt = np.diff(t)
        area = 0.5 * (v[:-1] + v[1:]) * dt
        # exact first moment of the linear segment
        mom = dt / 6.0 * (t[:-1] * (2.0 * v[:-1] + v[1:]) + t[1:] * (v[:-1] + 2.0 * v[1:]))
        return area, mom

    def scalars(self) -> KernelScalars:
        n = self.n
        a = np.zeros((n, n))
        sup = np.zeros((n, n))
        mom = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                area, m = self._segment_integrals(i, j)
                a[i, j] = 2.0 * float(np.sum(area))
                sup[i, j] = float(np.max(self.tables[i, j]))
                mom[i, j] = float(np.sum(m))
        return KernelScalars(a=a, sup=sup, first_moment=mom)

    def one_sided_tail(self, i, j, y):
        t, v = self.tau, self.tables[i, j]
        area, _ = self._segment_integrals(i, j)
        cum_from_right = np.concatenate([np.cumsum(area[::-1])[::-1], [0.0]])
        ys = np.maximum(np.asarray(y, dtype=float), 0.0)
        end = np.clip(np.searchsorted(t, ys, side="right"), 1, t.size - 1)
        # partial trapezoid from y to the end of its segment, then whole ones
        out = 0.5 * (np.interp(ys, t, v) + v[end]) * (t[end] - ys) + cum_from_right[end]
        out = np.where(ys >= t[-1], 0.0, out)
        return out if out.ndim else float(out)

    def rescaled(self, factor: float) -> "TabulatedKernel":
        return TabulatedKernel(self.tau, self.tables * factor)

    def sample_span(self) -> float:
        return float(self.tau[-1])


def kernel_eval(model, i: int, j: int, tau):
    """Evaluate entry (i, j) of the kernel at lag tau (scalar or array)."""
    n = model.n
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"kernel index ({i}, {j}) out of range for n = {n}")
    return model.eval(i, j, tau)


def kernel_factors(model):
    """(mix, unit) with K_ij(tau) = mix[i, j] * unit(tau), unit a 1 x 1
    kernel; a 1 x 1 model is ([[1.0]], model) itself. None when the model
    has no shared profile (a multi-component TabulatedKernel)."""
    n = model.n
    if n == 1:
        return np.ones((1, 1)), model
    if not hasattr(model, "profile"):
        return None
    # read through the accessor eval uses, so mix is exactly what eval scales by
    mix = np.array([[model._c(i, j) for j in range(n)] for i in range(n)])
    return mix, model.profile()


def kernel_scalars(model) -> KernelScalars:
    """Row integrals, suprema and first half-moments of the kernel, from each
    model's closed or semi-closed forms."""
    sc = model.scalars()
    for name, m in (("a", sc.a), ("sup", sc.sup), ("first_moment", sc.first_moment)):
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            raise ValueError(f"kernel scalar matrix {name} must be finite and positive")
    return sc


def kernel_tail_mass(model, i: int, j: int, radius: float) -> float:
    """Two-sided mass of entry (i, j) beyond |tau| = radius (radius >= 0)."""
    if radius < 0.0:
        raise ValueError("radius must be nonnegative")
    return 2.0 * float(model.one_sided_tail(i, j, radius))


def kernel_tail_one_sided(model, i: int, j: int, y):
    """One-sided tail integral of entry (i, j) from y to infinity, y >= 0."""
    if np.any(np.asarray(y) < 0.0):
        raise ValueError("tail start must be nonnegative")
    return model.one_sided_tail(i, j, y)


def load_tabulated_kernel(path) -> TabulatedKernel:
    """Read a CSV with columns tau, k_i_j for every pair i <= j (1-based).

    Missing lower-triangle columns are filled by symmetry.
    """
    with read_table(path) as (header, data, _):
        if header[0] != "tau":
            raise ValueError("first column must be 'tau'")
        if len(header) < 2:
            raise ValueError("no k_i_j column")
        pairs = []
        for name in header[1:]:
            parts = name.split("_")
            if len(parts) != 3 or parts[0] != "k" or not all(p.isdecimal() for p in parts[1:]):
                raise ValueError(f"bad kernel column name {name!r}; expected k_i_j")
            i, j = int(parts[1]) - 1, int(parts[2]) - 1
            if i > j:
                raise ValueError(f"kernel column {name!r} must have i <= j")
            pairs.append((i, j))
        n = max(j for _, j in pairs) + 1
        need = {(i, j) for i in range(n) for j in range(i, n)}
        if set(pairs) != need:
            raise ValueError("kernel table must list every pair i <= j exactly once")
        tau = data[:, 0]
        tables = np.zeros((n, n, tau.size))
        for col, (i, j) in enumerate(pairs, start=1):
            tables[i, j] = data[:, col]
            tables[j, i] = data[:, col]
        return TabulatedKernel(tau, tables)
