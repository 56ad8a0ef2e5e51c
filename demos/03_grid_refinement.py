"""Check the discretization error empirically.

Three experiments on the scalar reference instance:
  1. the reported quadrature error budget as the grid refines,
  2. the observed convergence order of the operator application
     (the weight's inverse-square-root blowup is handled by exact cell
     moments, so plain second order survives),
  3. what doubling the truncation radius does to the outer tail.
"""

import numpy as np

from convint import (
    ExpSqrtWeight, FieldVector, GaussianKernel, Numerics, PowerNonlin,
    PowerPhi, ProblemSpec, apply_operator, build_grid, build_plan,
    estimate_quadrature_error, kernel_scalars, perron_vector, run_instance,
    validate_problem,
)


def build_report():
    """Validation report of the instance; it carries the spec, the kernel
    scalars, eta and the majorant xi."""
    kern = GaussianKernel(coeffs=np.array([[1.0]]))
    scalars = kernel_scalars(kern)
    eta = perron_vector(scalars.a)
    spec = ProblemSpec(n=1, kernel=kern,
                       weights=(ExpSqrtWeight(eps=0.1),),
                       nonlins=(PowerNonlin(alpha=0.5, eta=float(eta[0])),),
                       phi=PowerPhi(p=0.5))
    return validate_problem(spec, scalars, eta)


def main():
    report = build_report()
    spec = report.spec
    r = 32.0

    print("== quadrature error budget vs grid size (R = 32) ==")
    for n_cells in (1024, 2048, 4096, 8192):
        grid = build_grid(r, n_cells)
        plan = build_plan(spec, grid)
        quad = estimate_quadrature_error(spec, plan, report.eta, report.xi,
                                         report.scalars)
        print(f"  {n_cells:>5} cells: regular {quad.regular:.2e}  "
              f"singular {quad.singular:.2e}  total {quad.total:.2e}")

    print("\n== observed order of the operator application ==")
    outputs = []
    for n_cells in (1024, 2048, 4096):
        grid = build_grid(r, n_cells)
        plan = build_plan(spec, grid)
        values = (1.0 + 0.4 * np.exp(-grid.half_nodes**2 / 4.0))[None, :]
        f = FieldVector(grid=grid, values=values, boundary=np.array([1.0]))
        outputs.append(apply_operator(plan, f, spec.nonlins).values[0])
    coarse, mid, fine = outputs
    d1 = float(np.max(np.abs(coarse - mid[::2])))
    d2 = float(np.max(np.abs(mid[::2] - fine[::4])))
    print(f"  successive differences {d1:.3e} -> {d2:.3e}; "
          f"order = {np.log2(d1 / d2):.2f}")

    print("\n== outer tail vs truncation radius ==")
    for radius, n_cells in ((32.0, 8192), (64.0, 16384)):
        res = run_instance(report, Numerics(tol_stop=1e-10),
                           grid=build_grid(radius, n_cells))
        asym = res.sol.asymptotics
        print(f"  R = {radius:>4g}: outer-band tail integral "
              f"{float(asym.tail_integral[0]):.3e}, half-tail ratio "
              f"{float(asym.half_tail_ratio[0]):.4f}")
    print("  (same h; the band [R/2, R] moves outward and its mass drops)")


if __name__ == "__main__":
    main()
