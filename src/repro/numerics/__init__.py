"""Numerical substrate used by the Fokker-Planck solver and the analyses.

The subpackage is deliberately self-contained: every routine needed by the
higher layers (grids, tridiagonal solves, quadrature, interpolation, ODE /
DDE / SDE integration, spectral period estimation, streaming statistics and
root finding) lives here, so the physics and control layers above never have
to reach for ad-hoc numerical code.
"""

from .. import _lazy

_EXPORTS = {
    "UniformGrid1D": ".grids",
    "PhaseGrid2D": ".grids",
    "TridiagonalFactorization": ".tridiag",
    "solve_tridiagonal": ".tridiag",
    "BACKEND_ENV_VAR": ".backend",
    "NumericsBackend": ".backend",
    "available_backends": ".backend",
    "get_backend": ".backend",
    "register_backend": ".backend",
    "trapezoid": ".integrate",
    "simpson": ".integrate",
    "cumulative_trapezoid": ".integrate",
    "normalize_density": ".integrate",
    "linear_interpolate": ".interpolate",
    "bilinear_interpolate": ".interpolate",
    "interp_columns": ".interpolate",
    "Interpolant1D": ".interpolate",
    "euler_step": ".ode",
    "rk4_step": ".ode",
    "integrate_fixed": ".ode",
    "integrate_adaptive": ".ode",
    "integrate_fixed_batch": ".ode",
    "integrate_adaptive_batch": ".ode",
    "ODEResult": ".ode",
    "BatchODEResult": ".ode",
    "DelayBuffer": ".dde",
    "integrate_dde": ".dde",
    "DDEResult": ".dde",
    "euler_maruyama": ".sde",
    "milstein": ".sde",
    "SDEPaths": ".sde",
    "dominant_period": ".spectral",
    "power_spectrum": ".spectral",
    "detect_peaks": ".spectral",
    "RunningStatistics": ".stats",
    "WeightedStatistics": ".stats",
    "empirical_density": ".stats",
    "bisect": ".rootfind",
    "newton": ".rootfind",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
