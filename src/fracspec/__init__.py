"""Spectral-Galerkin solver and verification harness for time-fractional
diffusion problems with time-dependent variable coefficients."""

from .fraccalc import (
    GridSeries,
    Kernel,
    TimeGrid,
    caputo_derivative,
    convolve,
    integration_by_parts_residual,
    ml,
    ml_array,
    rl_derivative,
    rl_integral,
    rl_integral_left,
)

__version__ = "0.1.0"

__all__ = [
    "GridSeries",
    "Kernel",
    "TimeGrid",
    "caputo_derivative",
    "convolve",
    "integration_by_parts_residual",
    "ml",
    "ml_array",
    "rl_derivative",
    "rl_integral",
    "rl_integral_left",
    "__version__",
]
