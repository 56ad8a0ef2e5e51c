"""Solve a genuinely coupled two-component system.

The kernel here is a mixture of two-sided exponentials rather than a
Gaussian, so its tails decay exponentially instead of super-exponentially
and the truncation check has to work against them. The two components get
different weights and different response maps; the coupling enters through
the off-diagonal kernel entries.
"""

import numpy as np

from convint import (
    ExpMixtureKernel, ExpSqrtWeight, Numerics, PowerPhi, ProblemSpec,
    RootPowerMeanNonlin, TwoPowerMeanNonlin, a_priori_iterations, normalize,
    run_instance, validate_problem,
)

# How far a passing check's worst_value sits from the threshold it must
# clear, as (sign, threshold in units of the check's tol): +1 for a value
# that must exceed the threshold, -1 for a defect (conditions 2 and II) that
# must stay below it. Condition b reports the largest excess mass, which has
# no threshold, so it is not ranked.
MARGIN = {"1": (1, 0), "2": (-1, 1), "a": (1, 0), "I": (1, 0), "II": (-1, 1),
          "III": (1, 1), "IV": (1, -1)}


def margin(check):
    sign, threshold = MARGIN[check.condition]
    return sign * (check.worst_value - threshold * check.tol)


def main():
    kern, scalars, eta, rho = normalize(
        ExpMixtureKernel(coeffs=np.array([[0.6, 0.2], [0.2, 0.5]]),
                         s_lo=1.0, s_hi=2.0))
    print(f"normalized by 1/{rho:.9f}; eta = {np.array2string(eta, precision=8)}")

    weights = (ExpSqrtWeight(eps=0.05), ExpSqrtWeight(eps=0.08))
    nonlins = (TwoPowerMeanNonlin(alpha=0.4, beta=0.7, eta=float(eta[0])),
               RootPowerMeanNonlin(alpha=0.5, eta=float(eta[1])))
    phi = PowerPhi(p=0.7)
    spec = ProblemSpec(kernel=kern, weights=weights, nonlins=nonlins,
                       phi=phi)
    # run_instance refuses a report with a failed condition
    report = validate_problem(spec, scalars, eta)
    res = run_instance(report,
                       Numerics(tol_trunc=1e-6, n_cells=8192, tol_stop=1e-9))
    print("all eight admission conditions pass; tightest margins:")
    ranked = sorted((c for c in report.checks if c.condition in MARGIN), key=margin)
    for check in ranked[:3]:
        print(f"  condition {check.condition:>3}: margin {margin(check):+.3e} "
              f"(value {check.worst_value:+.3e} at {check.worst_point})")

    grid, sol = res.plan.grid, res.sol
    sigma, k = res.validation.contraction
    print(f"xi = {np.array2string(res.validation.xi, precision=8)}; "
          f"sigma = {sigma:.8f}, k = {k:.8f}")
    print(f"certified iteration count for tol 1e-9: "
          f"{a_priori_iterations(sigma, k, 1e-9)}")
    print(f"R = {grid.r:g} ({grid.n_cells} cells, h = {grid.h:g}); "
          f"quadrature error {res.quad.total:.3e}")
    print(f"{sol.iterations} iterations to the step tolerance, "
          f"residual {sol.residual_sup:.3e}")

    center = sol.field[:, 0]     # column 0 of the x >= 0 nodes
    print(f"center values f(0) = {np.array2string(center, precision=10)}")
    asym = sol.asymptotics
    for j in range(2):
        print(f"component {j + 1}: edge deviation "
              f"{float(asym.edge_deviation[j]):.2e}, half-tail ratio "
              f"{float(asym.half_tail_ratio[j]):.4f}")
    print(f"the upper iterates enclose the discrete solution "
          f"within {sol.probe_deviation:.3e}")


if __name__ == "__main__":
    main()
