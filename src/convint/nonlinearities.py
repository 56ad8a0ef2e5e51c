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
on [0, 1]. Tabulated nonlinearities are interpolated with a shape-preserving
monotone cubic and earn acceptance only by passing the sampled property
checks downstream.
"""

from __future__ import annotations

import csv
import math

import numpy as np

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

    variant = "power"

    def __init__(self, alpha, eta):
        self.alpha = _check_exponent(alpha)
        self.eta = _check_eta(eta)
        self.phi_exponent = self.alpha

    def g(self, u):
        return self.eta ** (1.0 - self.alpha) * np.power(u, self.alpha)


class RootPowerMeanNonlin:
    """G(u) = (sqrt(u eta) + eta^(1-alpha) u^alpha) / 2."""

    variant = "root_power_mean"

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

    variant = "two_power_mean"

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

    variant = "saturating_exp"

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


class TabulatedNonlin:
    """Monotone cubic interpolant of (u, g) samples starting at (0, 0).

    Evaluation beyond the last sample is refused rather than extrapolated;
    supply a table covering the working range (at least [0, 2 xi]).
    """

    variant = "tabulated"

    def __init__(self, u, values, eta):
        u = np.asarray(u, dtype=float)
        values = np.asarray(values, dtype=float)
        if u.ndim != 1 or u.size < 3 or np.any(np.diff(u) <= 0.0):
            raise ValueError("u samples must be strictly increasing, at least three")
        if u[0] != 0.0 or values[0] != 0.0:
            raise ValueError("table must start at (0, 0)")
        if not np.all(np.isfinite(values)) or np.any(np.diff(values) <= 0.0):
            raise ValueError("g samples must be finite and strictly increasing")
        self.eta = _check_eta(eta)
        if self.eta > u[-1]:
            raise ValueError("table must cover the fixed point eta")
        self.u_max = float(u[-1])
        # imported here: scipy.interpolate loads scipy's optimize, linalg and
        # sparse stack, which no other model needs
        from scipy.interpolate import PchipInterpolator
        self._interp = PchipInterpolator(u, values, extrapolate=False)
        self.phi_exponent = None

    def g(self, u):
        u = np.asarray(u, dtype=float)
        if np.any(u > self.u_max * (1.0 + 1e-12)):
            raise ValueError(f"u beyond tabulated range [0, {self.u_max}]")
        out = self._interp(np.minimum(u, self.u_max))
        return out if out.ndim else float(out)


class PowerPhi:
    """phi(sigma) = sigma^p, p in (0, 1]; concave with exact endpoints."""

    variant = "power"

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
    """G(u) for u >= 0; rejects negative arguments, G(0) = 0 exactly."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
        raise ValueError("u must be finite and nonnegative")
    return model.g(u)


def phi_eval(model, sigma):
    """phi(sigma) for sigma in [0, 1]."""
    arr = np.asarray(sigma, dtype=float)
    if np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError("sigma must lie in [0, 1]")
    return model.phi(sigma)


def check_condition_iv(nl, phi, eta_j, xi_j, samples: int = 64, tol: float = 1e-12):
    """Sampled test of G(sigma u) >= phi(sigma) G(u) on [0,1] x [eta_j, xi_j].

    Returns (passed, worst_margin) where the margin is the minimum of
    G(sigma u) - phi(sigma) G(u) over the sample rectangle.
    """
    if not (xi_j > eta_j > 0.0):
        raise ValueError("need xi_j > eta_j > 0")
    sig = np.linspace(0.0, 1.0, samples)
    u = np.linspace(eta_j, xi_j, samples)
    gu = g_eval(nl, u)
    margin = np.inf
    for s, ps in zip(sig, phi_eval(phi, sig)):
        margin = min(margin, float(np.min(g_eval(nl, s * u) - ps * gu)))
    return margin >= -tol, margin


def chord_slope_gap(model, u_lo: float, u_hi: float) -> float:
    """G(u_lo)/u_lo minus the chord slope over [u_lo, u_hi].

    Strict concavity with G(0) = 0 makes this strictly positive; a linear G
    yields exactly zero, which is how the concavity check fails it.
    """
    if not (0.0 < u_lo < u_hi):
        raise ValueError("need 0 < u_lo < u_hi")
    g_lo = float(g_eval(model, u_lo))
    g_hi = float(g_eval(model, u_hi))
    return g_lo / u_lo - (g_hi - g_lo) / (u_hi - u_lo)


def load_tabulated_nonlin(path, eta=None) -> TabulatedNonlin:
    """Read a CSV with columns u, g; eta from a '# eta=...' line or the argument."""
    rows = []
    file_eta = None
    with open(path, newline="") as fh:
        for raw in fh:
            stripped = raw.strip()
            if stripped.startswith("#"):
                body = stripped.lstrip("#").strip()
                if body.replace(" ", "").startswith("eta="):
                    file_eta = float(body.split("=", 1)[1])
                continue
            if stripped:
                rows.append(next(csv.reader([stripped])))
    if not rows:
        raise ValueError(f"{path}: no data rows")
    header = [h.strip() for h in rows[0]]
    if header[:2] != ["u", "g"]:
        raise ValueError(f"{path}: expected columns u, g")
    if eta is None:
        eta = file_eta
    if eta is None:
        raise ValueError(f"{path}: eta not declared (file metadata or config)")
    data = np.array([[float(x) for x in row[:2]] for row in rows[1:]])
    return TabulatedNonlin(data[:, 0], data[:, 1], eta)
