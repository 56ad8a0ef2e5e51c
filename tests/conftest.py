"""Shared fixtures: the two reference instances used across the suite.

Pipelines are expensive enough (a truncation search, a dense plan, a full
monotone solve) that each is built once per session. The stages run through
the same library entries as the command line tool (normalize,
validate_problem, run_instance), so the fixtures double as an end-to-end
check of the library API.
"""

from __future__ import annotations

import numpy as np
import pytest

from convint import (
    ExpSqrtWeight,
    GaussianKernel,
    Numerics,
    PowerNonlin,
    PowerPhi,
    ProblemSpec,
    RationalWeight,
    RootPowerMeanNonlin,
    SaturatingExpNonlin,
    normalize,
    run_instance,
    validate_problem,
)


def build_pipeline(kernel, weights, make_nonlins, phi, tol_trunc, n_cells,
                   tol_stop, grid=None):
    """Normalize and validate one instance, then run every stage through
    run_instance, which refuses a failed report, and hand back its
    RunResult."""
    kern, scalars, eta, _ = normalize(kernel)
    spec = ProblemSpec(kernel=kern, weights=tuple(weights),
                       nonlins=tuple(make_nonlins(eta)), phi=phi)
    numerics = Numerics(tol_trunc=tol_trunc, n_cells=n_cells, tol_stop=tol_stop)
    return run_instance(validate_problem(spec, scalars, eta), numerics, grid)


def step_envelopes(slab, n):
    """The paper's envelopes for iterations 1..n, rebuilt from the report
    slab's contraction (sigma, k) and xi: the step bound
    k^(m-1) (1-sigma) max(xi) and the distance-to-limit bound
    k^m (1-sigma)/(1-k)."""
    sigma, k = slab.contraction
    m = np.arange(1, n + 1)
    step = k ** (m - 1) * (1.0 - sigma) * float(np.max(slab.xi))
    return step, k ** m * (1.0 - sigma) / (1.0 - k)


def flagship_models():
    """Scalar instance: unit gaussian kernel, inverse-sqrt weight, square root."""
    return dict(kernel=GaussianKernel(coeffs=[[1.0]]),
                weights=(ExpSqrtWeight(eps=0.1),),
                make_nonlins=lambda eta: (
                    PowerNonlin(alpha=0.5, eta=float(eta[0])),),
                phi=PowerPhi(p=0.5))


def coupled_models():
    """Two components mixing both weight families and two nonlinearity shapes."""
    return dict(kernel=GaussianKernel(coeffs=[[0.5, 0.3], [0.3, 0.7]]),
                weights=(ExpSqrtWeight(eps=0.12),
                         RationalWeight(eps=0.08, alpha=0.4)),
                make_nonlins=lambda eta: (
                    RootPowerMeanNonlin(alpha=0.3, eta=float(eta[0])),
                    SaturatingExpNonlin(alpha=0.6, eta=float(eta[1]))),
                phi=PowerPhi(p=0.6))


@pytest.fixture(scope="session")
def flagship():
    return build_pipeline(**flagship_models(), tol_trunc=1e-8, n_cells=8192,
                          tol_stop=1e-8)


@pytest.fixture(scope="session")
def flagship_hires():
    # pushed well below the standard tolerance so the genuine solution tail
    # rises above the iteration-gap floor in the outer band
    return build_pipeline(**flagship_models(), tol_trunc=1e-8, n_cells=8192,
                          tol_stop=1e-10)


@pytest.fixture(scope="session")
def coupled():
    # the rational weight's t^-(1+alpha) tail forces a large radius; judged
    # at tol_trunc 1e-5 that lands at R = 2048
    return build_pipeline(**coupled_models(), tol_trunc=1e-5, n_cells=65536,
                          tol_stop=1e-8)


def write_kernel_table(path, coeffs=((1.0,),), tau_max=10.0, n=801):
    """CSV kernel table sampling c_ij exp(-tau^2)/sqrt(pi) on [0, tau_max]."""
    coeffs = np.asarray(coeffs, dtype=float)
    tau = np.linspace(0.0, tau_max, n)
    cols = ["tau"]
    data = [tau]
    for i in range(coeffs.shape[0]):
        for j in range(i, coeffs.shape[1]):
            cols.append(f"k_{i + 1}_{j + 1}")
            data.append(coeffs[i, j] * np.exp(-tau * tau) / np.sqrt(np.pi))
    rows = [",".join(cols)]
    for k in range(tau.size):
        rows.append(",".join(format(col[k], ".17g") for col in data))
    path.write_text("\n".join(rows) + "\n")
    return path


def write_excess_table(path, eps=0.1, gamma=0.5, t_max=40.0):
    """CSV excess table for mu - 1 = eps e^{-t} / sqrt(t), dense near zero."""
    t = np.concatenate([np.geomspace(1e-7, 0.5, 160),
                        np.geomspace(0.505, t_max, 360)])
    vals = eps * np.exp(-t) / np.sqrt(t)
    rows = [f"# gamma={gamma}", "t,mu_minus_1"]
    rows += [f"{a:.17g},{b:.17g}" for a, b in zip(t, vals)]
    path.write_text("\n".join(rows) + "\n")
    return path


def write_nonlin_table(path, eta=1.0, u_top=4.0):
    """CSV samples of G(u) = sqrt(u), geometric toward zero where the
    square root's curvature concentrates."""
    u = np.concatenate([[0.0], np.geomspace(1e-8, u_top, 241)])
    rows = [f"# eta={eta}", "u,g"]
    rows += [f"{a:.17g},{np.sqrt(a):.17g}" for a in u]
    path.write_text("\n".join(rows) + "\n")
    return path


def write_linear_nonlin_table(path, u_top=3.0):
    """CSV samples of the identity map; strictly increasing but not concave."""
    u = np.linspace(0.0, u_top, 61)
    rows = ["# eta=1.0", "u,g"]
    rows += [f"{a:.17g},{a:.17g}" for a in u]
    path.write_text("\n".join(rows) + "\n")
    return path
