"""Monotone solvers for systems of nonlinear convolution integral equations.

The problem class: N coupled unknowns on the real line, each defined by
convolving an even positive matrix kernel against weighted images of the
others through concave nonlinearities, where the weights exceed one with an
integrable singularity at the origin. The package computes the eigenvector
background eta, the constant majorant xi, contraction parameters, and the
solution itself by monotone successive approximations on a truncated grid,
with every step of the theory checked numerically along the way.
"""

from .algebra import (SpectralData, a_priori_iterations, contraction_params,
                      perron_vector, solve_xi, spectral_radius)
from .discretization import (FieldVector, Grid, OperatorPlan, QuadratureError,
                             apply_operator, build_grid, build_plan,
                             choose_truncation, constant_field,
                             estimate_quadrature_error)
from .errors import (ConfigError, ConvintError, MajorantError, SolveError,
                     SpectralError, ValidationFailure)
from .kernels import (ExpMixtureKernel, GaussianKernel, KernelScalars,
                      TabulatedKernel, kernel_eval, kernel_scalars,
                      kernel_tail_mass, kernel_tail_one_sided,
                      load_tabulated_kernel)
from .nonlinearities import (PowerNonlin, PowerPhi, RootPowerMeanNonlin,
                             SaturatingExpNonlin, TabulatedNonlin,
                             TwoPowerMeanNonlin, check_condition_iv,
                             chord_slope_gap, g_eval, load_tabulated_nonlin,
                             phi_eval)
from .problem import (ConditionCheck, ProblemSpec, ValidationReport,
                      validate_problem)
from .solver import (AsymptoticsReport, IterationTrace, Numerics, RunResult,
                     SolutionReport, SolveOptions, asymptotics_report,
                     residual, run_instance, solve)
from .weights import (ExcessIntegrals, ExpSqrtWeight, RationalWeight,
                      TabulatedExcessWeight, build_b_matrix,
                      excess_cell_moments, excess_integral, excess_tail_mass,
                      excess_weighted_integral, load_tabulated_excess)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ConvintError", "ConfigError", "ValidationFailure", "SpectralError",
    "MajorantError", "SolveError",
    # kernels
    "GaussianKernel", "ExpMixtureKernel", "TabulatedKernel", "KernelScalars",
    "kernel_eval", "kernel_scalars", "kernel_tail_mass",
    "kernel_tail_one_sided", "load_tabulated_kernel",
    # weights
    "ExpSqrtWeight", "RationalWeight", "TabulatedExcessWeight",
    "ExcessIntegrals", "excess_integral", "excess_tail_mass",
    "excess_cell_moments", "excess_weighted_integral", "build_b_matrix",
    "load_tabulated_excess",
    # nonlinearities
    "PowerNonlin", "RootPowerMeanNonlin", "TwoPowerMeanNonlin",
    "SaturatingExpNonlin", "TabulatedNonlin", "PowerPhi", "g_eval", "phi_eval",
    "check_condition_iv", "chord_slope_gap", "load_tabulated_nonlin",
    # algebra
    "SpectralData", "spectral_radius", "perron_vector", "solve_xi",
    "contraction_params", "a_priori_iterations",
    # problem
    "ProblemSpec", "ConditionCheck", "ValidationReport", "validate_problem",
    # discretization
    "Grid", "FieldVector", "OperatorPlan", "QuadratureError", "build_grid",
    "constant_field", "choose_truncation", "build_plan", "apply_operator",
    "estimate_quadrature_error",
    # solver
    "Numerics", "RunResult", "run_instance", "SolveOptions", "IterationTrace",
    "AsymptoticsReport", "SolutionReport", "solve", "residual",
    "asymptotics_report",
]
