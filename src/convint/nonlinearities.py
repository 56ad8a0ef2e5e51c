"""Concave nonlinearities G_j and the scaling map phi.

Every model fixes a point eta_j > 0 with G_j(0) = 0 and G_j(eta_j) = eta_j,
is monotone increasing on [0, inf) and strictly concave there. The scaling
map phi: [0,1] -> [0,1] certifies G_j(sigma u) >= phi(sigma) G_j(u); for the
built-in power-type families the natural choice is phi(sigma) = sigma^p with

  power            G(u) = eta^(1-a) u^a                      p = a
  root_power_mean  G(u) = (sqrt(u eta) + eta^(1-a) u^a) / 2  p = max(1/2, a)
  two_power_mean   G(u) = (eta^(1-b) u^b + eta^(1-a) u^a)/2  p = max(a, b)
  saturating_exp   G(u) = c (1 - exp(-eta^(1-a) u^a)),
                   c = eta / (1 - exp(-eta))                 p = a

Any larger exponent still in (0, 1] also works, since sigma^p decreases in p
on [0, 1]. Tabulated nonlinearities are interpolated with the shape-preserving
monotone cubic of Fritsch and Butland (PCHIP), computed here in numpy with
the same arithmetic as scipy.interpolate.PchipInterpolator, and earn
acceptance only by passing the sampled property checks downstream.
"""

from __future__ import annotations

import math

import numpy as np

from ._tables import increasing, read_table

__all__ = [
    "PowerNonlin",
    "RootPowerMeanNonlin",
    "TwoPowerMeanNonlin",
    "SaturatingExpNonlin",
    "TabulatedNonlin",
    "PowerPhi",
    "g_eval",
    "phi_eval",
    "check_condition_iv",
    "chord_slope_gap",
    "load_tabulated_nonlin",
]

SAMPLES = 64   # per sampled condition check, here and in problem.validate_problem


def _check_eta(eta):
    eta = float(eta)
    if not (eta > 0.0) or not math.isfinite(eta):
        raise ValueError("eta must be finite and positive")
    return eta


def _check_exponent(a, name="alpha"):
    a = float(a)
    if not (0.0 < a < 1.0):
        raise ValueError(f"{name} must lie in (0, 1)")
    return a


class PowerNonlin:
    """G(u) = eta^(1-alpha) u^alpha."""

    def __init__(self, alpha, eta):
        self.alpha = _check_exponent(alpha)
        self.eta = _check_eta(eta)
        self.phi_exponent = self.alpha

    def g(self, u):
        return self.eta ** (1.0 - self.alpha) * np.power(u, self.alpha)


class RootPowerMeanNonlin:
    """G(u) = (sqrt(u eta) + eta^(1-alpha) u^alpha) / 2."""

    def __init__(self, alpha, eta):
        self.alpha = _check_exponent(alpha)
        self.eta = _check_eta(eta)
        self.phi_exponent = max(0.5, self.alpha)

    def g(self, u):
        u = np.asarray(u, dtype=float)
        out = 0.5 * (np.sqrt(u * self.eta)
                     + self.eta ** (1.0 - self.alpha) * np.power(u, self.alpha))
        return out if out.ndim else float(out)


class TwoPowerMeanNonlin:
    """G(u) = (eta^(1-beta) u^beta + eta^(1-alpha) u^alpha) / 2."""

    def __init__(self, alpha, beta, eta):
        self.alpha = _check_exponent(alpha)
        self.beta = _check_exponent(beta, "beta")
        self.eta = _check_eta(eta)
        self.phi_exponent = max(self.alpha, self.beta)

    def g(self, u):
        u = np.asarray(u, dtype=float)
        out = 0.5 * (self.eta ** (1.0 - self.beta) * np.power(u, self.beta)
                     + self.eta ** (1.0 - self.alpha) * np.power(u, self.alpha))
        return out if out.ndim else float(out)


class SaturatingExpNonlin:
    """G(u) = c (1 - exp(-eta^(1-alpha) u^alpha)) with c = eta / (1 - exp(-eta))."""

    def __init__(self, alpha, eta):
        self.alpha = _check_exponent(alpha)
        self.eta = _check_eta(eta)
        self.gain = self.eta / -math.expm1(-self.eta)
        self.phi_exponent = self.alpha

    def _inner(self, u):
        return self.eta ** (1.0 - self.alpha) * np.power(u, self.alpha)

    def g(self, u):
        out = self.gain * -np.expm1(-self._inner(u))
        return out if np.ndim(out) else float(out)


class _MonotoneCubic:
    """PCHIP interpolant of strictly increasing samples (x, y), n >= 3.

    Bitwise equal to scipy's PchipInterpolator(x, y, extrapolate=False) on
    [x_0, x_n-1]: the knot slopes are the Fritsch-Butland weighted harmonic
    means with the one-sided three-point estimate at both ends, the cubic
    on each interval has scipy's coefficients and is evaluated in scipy's
    order. Points must lie in [x_0, x_n-1]; the caller screens the rest.
    """

    def __init__(self, x, y):
        h = np.diff(x)
        m = np.diff(y) / h
        w1 = 2 * h[1:] + h[:-1]
        w2 = h[1:] + 2 * h[:-1]
        d = np.empty_like(y)
        d[1:-1] = 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2))
        d[0] = self._end_slope(h[0], h[1], m[0], m[1])
        d[-1] = self._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        self.x = x
        # the position of a point among the knots; the last knot maps to
        # n - 2 so that it belongs to the last interval
        self.pos = np.minimum(np.arange(x.size, dtype=float), x.size - 2)
        # scipy starts its sum from 0.0 + c3, which turns a -0.0 into 0.0
        self.c = (t / h, (m - d[:-1]) / h - t, d[:-1], 0.0 + y[:-1])

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        # with increasing samples the estimate is kept unless it is not
        # positive, where shape preservation sets it to zero
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        return d if d > 0.0 else 0.0

    def __call__(self, v):
        """Values at the 1-D points v."""
        x, (c0, c1, c2, c3) = self.x, self.c
        # np.interp searches from the previous point's interval; truncating
        # its position gives the interval, except where the position rounded
        # up onto the next knot. The indices are in range, and take with
        # mode="clip" writes to out directly where "raise" stages a copy.
        s = np.interp(v, x, self.pos)
        i = s.astype(np.intp)
        x.take(i, out=s, mode="clip")
        back = s > v
        if back.any():
            i -= back
            x.take(i, out=s, mode="clip")
        np.subtract(v, s, out=s)
        out = c2.take(i)
        out *= s
        term = c3.take(i)
        out += term
        power = s * s
        c1.take(i, out=term, mode="clip")
        term *= power
        out += term
        power *= s
        c0.take(i, out=term, mode="clip")
        term *= power
        out += term
        return out


class TabulatedNonlin:
    """Monotone cubic (PCHIP) interpolant of (u, g) samples starting at (0, 0).

    Evaluation beyond the last sample is refused rather than extrapolated;
    supply a table covering the working range (at least [0, 2 xi]). A
    negative or NaN u gives NaN.
    """

    def __init__(self, u, values, eta):
        u = np.asarray(u, dtype=float)
        values = np.asarray(values, dtype=float)
        if u.ndim != 1 or u.size < 3 or not increasing(u):
            raise ValueError("u samples must be finite and strictly increasing, at least three")
        if u[0] != 0.0 or values[0] != 0.0:
            raise ValueError("table must start at (0, 0)")
        if not increasing(values):
            raise ValueError("g samples must be finite and strictly increasing")
        self.eta = _check_eta(eta)
        if self.eta > u[-1]:
            raise ValueError("table must cover the fixed point eta")
        self.u_max = float(u[-1])
        self._cubic = _MonotoneCubic(u, values)
        self.phi_exponent = None

    def g(self, u):
        u = np.asarray(u, dtype=float)
        flat = u.ravel()
        if not (flat.min(initial=0.0) >= 0.0 and flat.max(initial=0.0) <= self.u_max):
            # negative, NaN or beyond the last sample
            if np.any(flat > self.u_max * (1.0 + 1e-12)):
                raise ValueError(f"u beyond tabulated range [0, {self.u_max}]")
            inside = flat >= 0.0
            flat = np.where(inside, np.minimum(flat, self.u_max), 0.0)
            out = np.where(inside, self._cubic(flat), np.nan).reshape(u.shape)
        else:
            out = self._cubic(flat).reshape(u.shape)
        return out if out.ndim else float(out)


class PowerPhi:
    """phi(sigma) = sigma^p, p in (0, 1]; concave with exact endpoints."""

    def __init__(self, p):
        p = float(p)
        if not (0.0 < p <= 1.0):
            raise ValueError("exponent p must lie in (0, 1]")
        self.p = p

    def phi(self, sigma):
        sigma = np.asarray(sigma, dtype=float)
        out = np.power(sigma, self.p)
        return out if out.ndim else float(out)


def g_eval(model, u):
    """G(u) for u >= 0; rejects negative, NaN or infinite u, G(0) = 0 exactly."""
    arr = np.asarray(u, dtype=float)
    # two reductions, no masks; a NaN fails both comparisons
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=0.0) < np.inf):
        raise ValueError("u must be finite and nonnegative")
    return model.g(u)


def phi_eval(model, sigma):
    """phi(sigma) for sigma in [0, 1]."""
    arr = np.asarray(sigma, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("sigma must lie in [0, 1]")
    return model.phi(sigma)


def check_condition_iv(nl, phi, eta_j, xi_j, tol: float = 1e-12):
    """Sampled test of G(sigma u) >= phi(sigma) G(u) on [0,1] x [eta_j, xi_j].

    Returns (passed, worst_margin): the minimum of G(sigma u) - phi(sigma) G(u)
    over the SAMPLES x SAMPLES array sigma u, which G evaluates in one call.
    """
    if not (xi_j > eta_j > 0.0):
        raise ValueError("need xi_j > eta_j > 0")
    sig = np.linspace(0.0, 1.0, SAMPLES)
    u = np.linspace(eta_j, xi_j, SAMPLES)
    gap = g_eval(nl, sig[:, None] * u) - phi_eval(phi, sig)[:, None] * g_eval(nl, u)
    margin = float(np.min(gap))
    return margin >= -tol, margin


def chord_slope_gap(model, u_lo, u_hi: float):
    """G(u_lo)/u_lo minus the chord slope over [u_lo, u_hi].

    An array u_lo gives the gaps elementwise from one G call, a scalar a
    float. Strict concavity with G(0) = 0 makes each gap strictly positive;
    a linear G yields exactly zero, which is how the concavity check fails it.
    """
    if not np.all((0.0 < u_lo) & (u_lo < u_hi)):
        raise ValueError("need 0 < u_lo < u_hi")
    g_lo = g_eval(model, u_lo)
    g_hi = float(g_eval(model, u_hi))
    return g_lo / u_lo - (g_hi - g_lo) / (u_hi - u_lo)


def load_tabulated_nonlin(path, eta=None) -> TabulatedNonlin:
    """Read a CSV with columns u, g; eta from a '# eta=...' line or the argument."""
    if eta is not None:
        eta = _check_eta(eta)   # the caller's value: its error names no file
    with read_table(path, "eta") as (header, data, file_eta):
        if header[:2] != ["u", "g"]:
            raise ValueError("expected columns u, g")
        if eta is None:
            eta = file_eta
        if eta is None:
            raise ValueError("eta not declared (file metadata or config)")
        return TabulatedNonlin(data[:, 0], data[:, 1], eta)
