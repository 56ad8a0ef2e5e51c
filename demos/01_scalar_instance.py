"""Walk the full pipeline on the scalar reference instance.

One unknown function, Gaussian kernel, weight excess 0.1 e^{-|t|}/sqrt|t|,
square-root response map. The script normalizes the kernel and checks the
admission conditions, which also solves the majorant, then hands the
validation report to run_instance, which runs the truncation, plan, error
budget and the monotone solve.
Every stage prints the quantity it certifies, ending with the solved
profile's center value and the width of the enclosure the upper iterates
certify.
"""

import numpy as np

from convint import (
    ExpSqrtWeight, GaussianKernel, Numerics, PowerNonlin, PowerPhi,
    ProblemSpec, a_priori_iterations, kernel_scalars, perron_vector,
    run_instance, spectral_radius, validate_problem,
)


def main():
    print("== 1. kernel normalization ==")
    kern = GaussianKernel(coeffs=np.array([[1.0]]))
    rho = spectral_radius(kernel_scalars(kern).a)
    kern = kern.rescaled(1.0 / rho)
    scalars = kernel_scalars(kern)
    print(f"integral matrix spectral radius {rho:g}; rescaled so a = "
          f"{float(scalars.a[0, 0]):g}, sup K = {float(scalars.sup[0, 0]):.8f}")

    eta = perron_vector(scalars.a)
    print(f"background level eta = {float(eta[0]):g}")

    print("\n== 2. admission conditions ==")
    weights = (ExpSqrtWeight(eps=0.1),)
    nonlins = (PowerNonlin(alpha=0.5, eta=float(eta[0])),)
    phi = PowerPhi(p=0.5)
    spec = ProblemSpec(n=1, kernel=kern, weights=weights, nonlins=nonlins,
                       phi=phi)
    report = validate_problem(spec, scalars, eta)
    for check in report.checks:
        print(f"condition {check.condition:>3}: "
              f"{'pass' if check.passed else 'FAIL'}"
              f"  (margin {check.worst_value:+.3e} at {check.worst_point})")

    # the remaining stages run once each, in order, inside the library;
    # run_instance refuses a report with a failed condition
    res = run_instance(report,
                       Numerics(tol_trunc=1e-8, n_cells=8192, tol_stop=1e-10))
    spectral, grid, quad, sol = res.spectral, res.grid, res.quad, res.sol

    print("\n== 3. closed-form majorant ==")
    excess = res.validation.excess
    b = float(excess.b[0, 0])
    print(f"excess mass w = {float(excess.w[0]):.12f}, b = {b:.12f}")
    print(f"upper slab level xi = {float(spectral.xi[0]):.12f} "
          f"(= (1 + b)^2 for the square-root map)")
    print(f"contraction constants sigma = {spectral.sigma:.9f}, k = {spectral.k:.9f}")
    n_cert = a_priori_iterations(spectral.sigma, spectral.k, 1e-8)
    print(f"certified iteration count for tol 1e-8: {n_cert}")

    print("\n== 4. discretization ==")
    print(f"truncation radius R = {grid.r:g}, {grid.n_cells} cells, h = {grid.h:g}")
    print(f"quadrature error budget {quad.total:.3e} "
          f"(regular {quad.regular:.1e}, singular {quad.singular:.1e}, "
          f"dropped tail {quad.dropped_tail:.1e})")

    print("\n== 5. monotone iteration ==")
    print(f"{sol.iterations} iterations ({sol.termination}), "
          f"residual {sol.residual_sup:.3e}")
    tr = sol.trace
    xi_max = float(np.max(spectral.xi))
    print("step sizes d_n vs geometric bound k^(n-1) (1 - sigma) max(xi) (first 6):")
    for n in range(6):
        bound = spectral.k ** n * (1.0 - spectral.sigma) * xi_max
        print(f"  n={n + 1}: d = {tr.d[n]:.3e}  bound = {bound:.3e}")

    print("\n== 6. shape of the solution ==")
    # the field stores the nodes x >= 0, so column 0 is x = 0
    f0 = float(sol.field.values[0, 0])
    print(f"center value f(0) = {f0:.12f}; edges sit on eta = 1")
    asym = sol.asymptotics
    print(f"edge deviation {float(asym.edge_deviation[0]):.3e}, "
          f"outer-band tail integral {float(asym.tail_integral[0]):.3e}, "
          f"half-tail ratio {float(asym.half_tail_ratio[0]):.4f}")
    print(f"the upper iterates enclose the discrete solution "
          f"within {sol.probe_deviation:.3e}")


if __name__ == "__main__":
    main()
