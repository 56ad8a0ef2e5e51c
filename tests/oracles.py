"""Adaptive-quadrature references the library's closed forms and fixed rules
are checked against. Only the tests import this module, so scipy.integrate
stays off the library's import path.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from convint import ExpSqrtWeight, KernelScalars, RationalWeight


def excess_integral_quadrature(model) -> float:
    """w = int (mu - 1) dt over the line for the two analytic weight models."""
    if isinstance(model, ExpSqrtWeight):
        # t = u^2 removes the singularity on [0, 1]
        head, _ = integrate.quad(lambda u: 2.0 * math.exp(-u * u), 0.0, 1.0,
                                 epsabs=1e-13, epsrel=1e-13)
        tail, _ = integrate.quad(lambda t: math.exp(-t) / math.sqrt(t), 1.0, np.inf,
                                 epsabs=1e-13, epsrel=1e-13)
        return 2.0 * model.eps * (head + tail)
    if isinstance(model, RationalWeight):
        b = 1.0 / (1.0 - model.alpha)
        head, _ = integrate.quad(lambda u: b / (1.0 + u ** (2.0 * b)), 0.0, 1.0,
                                 epsabs=1e-13, epsrel=1e-13)
        # t -> 1/v maps [1, inf) onto (0, 1] with a smooth integrand
        tail, _ = integrate.quad(lambda v: v ** model.alpha / (1.0 + v * v), 0.0, 1.0,
                                 epsabs=1e-13, epsrel=1e-13)
        return 2.0 * model.eps * (head + tail)
    raise TypeError(f"no quadrature reference for {type(model).__name__}")


def rational_tail_quadrature(model: RationalWeight, t_from: float) -> float:
    """Two-sided excess mass beyond |t| = t_from. The part beyond
    max(t_from, 1) is 2 eps int_0^x v^alpha / (1 + v^2) dv with
    x = 1/max(t_from, 1) (t = 1/v); for t_from < 1 the band t_from < |t| < 1
    adds 2 eps b int_(t_from^(1/b))^1 du / (1 + u^(2b)) with b = 1/(1-alpha)
    (t = u^b). Neither integrand has a singularity to resolve, and neither
    interval grows as t_from -> 0."""
    val, _ = integrate.quad(lambda v: v ** model.alpha / (1.0 + v * v),
                            0.0, 1.0 / max(t_from, 1.0),
                            epsabs=0.0, epsrel=2e-14, limit=400)
    if t_from < 1.0:
        b = 1.0 / (1.0 - model.alpha)
        band, _ = integrate.quad(lambda u: b / (1.0 + u ** (2.0 * b)),
                                 t_from ** (1.0 - model.alpha), 1.0,
                                 epsabs=0.0, epsrel=2e-14, limit=400)
        val += band
    return 2.0 * model.eps * val


def weighted_integral_quadrature(model, fn, hi: float) -> float:
    """int_0^hi fn(t) (mu - 1)(t) dt for the two analytic weight models.

    Same substitution u = t^(1-gamma) as the library, but adaptive
    quadrature on every dyadic interval of u below hi^(1-gamma) in place of
    the fixed Gauss rule. fn is called with scalars.
    """
    if isinstance(model, ExpSqrtWeight):
        gamma, s = 0.5, lambda t: model.eps * math.exp(-t)
    elif isinstance(model, RationalWeight):
        gamma, s = model.alpha, lambda t: model.eps / (1.0 + t * t)
    else:
        raise TypeError(f"no quadrature reference for {type(model).__name__}")
    p = 1.0 - gamma
    top = hi ** p
    breaks = [0.0] + [top * 2.0 ** -k for k in range(60, -1, -1)]
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        val, _ = integrate.quad(lambda u: float(fn(u ** (1.0 / p))) * s(u ** (1.0 / p)),
                                a, b, epsabs=1e-18, epsrel=2e-14, limit=200)
        total += val
    return total / p


def kernel_scalars_quadrature(model) -> KernelScalars:
    """Row integrals, suprema and first half-moments by adaptive integration
    of model.eval over [0, model.sample_span()]; the sup is sampled."""
    n = model.n
    a = np.zeros((n, n))
    sup = np.zeros((n, n))
    mom = np.zeros((n, n))
    span = model.sample_span()
    grid = np.linspace(0.0, span, 4097)
    for i in range(n):
        for j in range(n):
            f = lambda t: model.eval(i, j, t)
            ai, _ = integrate.quad(f, 0.0, span, epsabs=1e-12, epsrel=1e-13, limit=400)
            mi, _ = integrate.quad(lambda t: t * f(t), 0.0, span,
                                   epsabs=1e-12, epsrel=1e-13, limit=400)
            a[i, j] = 2.0 * ai
            sup[i, j] = float(np.max(model.eval(i, j, grid)))
            mom[i, j] = mi
    return KernelScalars(a=a, sup=sup, first_moment=mom)
