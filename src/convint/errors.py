"""Exception hierarchy shared by the pipeline stages.

Each class corresponds to one failure stage so the command line tool can map
exceptions to distinct exit codes.
"""

from __future__ import annotations

__all__ = ["ConvintError", "ConfigError", "ValidationFailure", "SpectralError",
           "MajorantError", "SolveError"]


class ConvintError(Exception):
    """Base class for all library errors."""


class ConfigError(ConvintError):
    """Malformed configuration: bad JSON, unknown variant, missing field."""


class ValidationFailure(ConvintError):
    """One or more structural conditions on the problem data failed.

    Carries the full report so callers can name the failed conditions.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class SpectralError(ConvintError):
    """Power iteration failed to converge, or the radius is degenerate."""


class MajorantError(ConvintError):
    """The majorant system has no reachable fixed point above the Perron
    vector, or the derived contraction parameters fall outside (0, 1)."""


class SolveError(ConvintError):
    """Discrete operator construction or the monotone iteration failed."""
