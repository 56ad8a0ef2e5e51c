"""Monotone solvers for systems of nonlinear convolution integral equations.

The problem class: N coupled unknowns on the real line, each defined by
convolving an even positive matrix kernel against weighted images of the
others through concave nonlinearities, where the weights exceed one with an
integrable singularity at the origin. The package computes the eigenvector
background eta, the constant majorant xi, contraction parameters, and the
solution itself by monotone successive approximations on a truncated grid,
with every step of the theory checked numerically along the way.

The package exports every name of each module's __all__, module by module.
"""

from . import algebra, discretization, errors, kernels, nonlinearities, problem, solver, weights
from .algebra import *  # noqa: F401,F403
from .discretization import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .kernels import *  # noqa: F401,F403
from .nonlinearities import *  # noqa: F401,F403
from .problem import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403
from .weights import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *(name for module in (algebra, discretization, errors, kernels,
                                                nonlinearities, problem, solver, weights)
                             for name in module.__all__)]
