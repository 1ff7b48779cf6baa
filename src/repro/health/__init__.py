"""Run-time numerical health monitoring (invariant monitors + policies).

The package watches the invariants each engine is supposed to preserve —
mass conservation and positivity of Fokker-Planck densities, finiteness of
ODE/SDE state blocks, queue non-negativity and event budgets in the
discrete-event simulator, convergence residuals in the stationary solver —
and reacts according to a configurable degradation policy:

``strict``
    abort with a typed :class:`~repro.exceptions.NumericalHealthError`
    subclass (deterministic under the runner's retry taxonomy);
``repair``
    apply a conservative, logged repair (renormalize mass, clamp negative
    cells, halve dt and substep) and continue;
``observe``
    record a :class:`HealthReport` and continue unchanged (the default);
``off``
    skip monitoring entirely — bit-identical to the pre-health code paths.

Monitors are created with :meth:`HealthMonitor.create`, which returns
``None`` for ``off`` so hot paths keep their original unguarded code.
"""

from .. import _lazy

_EXPORTS = {
    "DEFAULT_HEALTH": ".policy",
    "HEALTH_ENV_VAR": ".policy",
    "HEALTH_MODES": ".policy",
    "HealthLog": ".report",
    "HealthMonitor": ".monitors",
    "HealthReport": ".report",
    "KNOWN_NUMERICAL_FAULTS": ".faults",
    "arm_numerical_fault": ".faults",
    "armed_numerical_faults": ".faults",
    "consume_numerical_fault": ".faults",
    "is_known_health": ".policy",
    "reset_numerical_faults": ".faults",
    "resolve_health": ".policy",
    "validate_health": ".policy",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
