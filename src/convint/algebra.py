"""Spectral preprocessing and the majorant system.

Three layers, each feeding the next:

  1. Power iteration on the positive symmetric kernel-integral matrix:
     spectral radius and, once the matrix is normalized to unit radius,
     the positive eigenvector eta with A eta = eta (normalized so
     max eta_i = 1).
  2. The majorant fixed point xi_i = sum_j (a_ij + b_ij) G_j(xi_j), found by
     doubling a supersolution s * eta and iterating the monotone map
     downward until it stalls. Concavity makes the iterates nonincreasing,
     which is asserted at every step.
  3. The contraction parameters sigma = min_i eta_i / xi_i and
     k = (1 - phi(sigma/2)) / (1 - sigma/2), plus the pessimistic iteration
     count n with k^n (1 - sigma) / (1 - k) <= tol.

Everything here is plain dense linear algebra; no SciPy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MajorantError, SpectralError
from .nonlinearities import g_eval, phi_eval

__all__ = [
    "spectral_radius",
    "perron_vector",
    "solve_xi",
    "contraction_params",
    "a_priori_iterations",
]

STEP_CAP = 100_000             # steps of each power and majorant iteration
EIG_TOL = 1e-12                # residual perron_vector stops at
XI_TOL = 1e-13                 # step solve_xi stops at
SUPERSOLUTION_DOUBLINGS = 60   # of solve_xi's start s * eta, at most


def _check_positive_symmetric(m):
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
        raise ValueError("matrix must be entrywise positive and finite")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-12 * float(np.max(m))):
        raise ValueError("matrix must be symmetric")
    return 0.5 * (m + m.T)


def spectral_radius(m, tol: float = 1e-13) -> float:
    """Dominant eigenvalue of a positive symmetric matrix, by power iteration
    from the all-ones vector until ||Mv - lam v||_inf <= tol * lam."""
    m = _check_positive_symmetric(m)
    v = np.ones(m.shape[0])
    for _ in range(STEP_CAP):
        mv = m @ v
        lam = float(v @ mv) / float(v @ v)
        if float(np.max(np.abs(mv - lam * v))) <= tol * lam:
            return lam
        v = mv / np.max(mv)
    raise SpectralError(
        f"power iteration did not reach residual {tol:g} in {STEP_CAP} steps")


def perron_vector(a) -> np.ndarray:
    """Positive eigenvector of a unit-radius positive symmetric matrix.

    Normalized so that max_i eta_i = 1; the returned vector satisfies
    ||A eta - eta||_inf <= EIG_TOL.
    """
    a = _check_positive_symmetric(a)
    v = np.ones(a.shape[0])
    for _ in range(STEP_CAP):
        av = a @ v
        v_new = av / np.max(av)
        resid = float(np.max(np.abs(a @ v_new - v_new)))
        v = v_new
        if resid <= EIG_TOL:
            return v
    lam = float(v @ (a @ v)) / float(v @ v)
    raise SpectralError(
        f"eigenvector residual stalled above {EIG_TOL:g}; "
        f"radius estimate {lam:.6g} (expected 1): normalize the matrix first")


def solve_xi(a, b, nonlins, eta) -> np.ndarray:
    """Fixed point of tau_i = sum_j (a_ij + b_ij) G_j(tau_j), above eta.

    Starts from a supersolution s * eta (s doubled from 2 until the map
    moves it down) and iterates the map; concavity of the G_j forces the
    iterates to decrease entrywise toward the fixed point, and any increase
    beyond roundoff is reported as an error.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if np.any(b < 0.0) or not np.all(np.isfinite(b)):
        raise ValueError("b matrix must be finite and nonnegative")
    if np.any(eta <= 0.0):
        raise ValueError("eta must be entrywise positive")
    m = a + b

    def apply_map(tau):
        g = np.array([float(g_eval(nl, t)) for nl, t in zip(nonlins, tau)])
        return m @ g

    # the image of the accepted supersolution is the iteration's first step
    s = 2.0
    for _ in range(SUPERSOLUTION_DOUBLINGS):
        tau = s * eta
        tau_next = apply_map(tau)
        if np.all(tau_next <= tau):
            break
        s *= 2.0
    else:
        raise MajorantError(
            "no supersolution found by doubling; "
            "a nonlinearity may grow superlinearly")

    slack = 1e-13 * float(np.max(tau))
    for _ in range(STEP_CAP):
        if np.any(tau_next > tau + slack):
            raise MajorantError("majorant iteration increased; "
                                "monotonicity of the map is violated")
        step = float(np.max(np.abs(tau_next - tau)))
        tau = tau_next
        if step <= XI_TOL:
            return tau
        tau_next = apply_map(tau)
    raise MajorantError(f"majorant iteration did not settle within {STEP_CAP} steps")


def contraction_params(eta, xi, phi):
    """(sigma, k) from the eigenvector, the majorant, and the scaling map.

    sigma = min_i eta_i / xi_i must land in (0, 1) and
    k = (1 - phi(sigma/2)) / (1 - sigma/2) in (0, 1); anything else means
    the inputs are inconsistent and is reported rather than propagated.
    """
    eta = np.asarray(eta, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if eta.shape != xi.shape:
        raise ValueError("eta and xi must have the same shape")
    sigma = float(np.min(eta / xi))
    if not (0.0 < sigma < 1.0):
        raise MajorantError(f"sigma = {sigma:.6g} outside (0, 1); "
                            "majorant does not strictly dominate the eigenvector")
    k = (1.0 - float(phi_eval(phi, sigma / 2.0))) / (1.0 - sigma / 2.0)
    if not (0.0 < k < 1.0):
        raise MajorantError(f"contraction factor k = {k:.6g} outside (0, 1)")
    return sigma, k


def a_priori_iterations(sigma: float, k: float, tol: float) -> int:
    """Smallest n >= 1 with k^n (1 - sigma) / (1 - k) <= tol."""
    if not (0.0 < sigma < 1.0 and 0.0 < k < 1.0):
        raise ValueError("sigma and k must lie in (0, 1)")
    if tol <= 0.0:
        raise ValueError("tol must be positive")

    def bound(n):
        return k ** n * (1.0 - sigma) / (1.0 - k)

    n = max(1, math.ceil(math.log(tol * (1.0 - k) / (1.0 - sigma)) / math.log(k)))
    while bound(n) > tol:
        n += 1
    while n > 1 and bound(n - 1) <= tol:
        n -= 1
    return n
