"""Langevin / Monte-Carlo validation of the Fokker-Planck model.

The density governed by Equation 14 is exactly the ensemble density of
particles following the Langevin system

    dQ = ν dt + σ dW,        dν = g(Q, λ) dt,

with the reflecting behaviour at ``Q = 0``.  Simulating a large ensemble of
such particles therefore provides an independent, discretisation-free check
of the PDE solver: means, variances and full marginal densities must agree
within Monte-Carlo error.  The ensemble runner also supports per-particle
feedback delay, giving a reference solution for the delayed-FP
approximation.
"""

from .. import _lazy

_EXPORTS = {
    "LangevinModel": ".langevin",
    "EnsembleResult": ".ensemble",
    "run_ensemble": ".ensemble",
    "shard_sizes": ".ensemble",
    "compare_with_density": ".ensemble",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
