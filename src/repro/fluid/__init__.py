"""Deterministic fluid-approximation baseline (Bolot and Shankar [BoSh 90]).

The paper positions its Fokker-Planck model against the fluid approximation
used by Bolot and Shankar, which couples two deterministic ODEs -- one for
the queue length and one for the arrival rate -- and therefore cannot say
anything about the *variability* of the queue.  This subpackage implements
that baseline exactly as described (Equation 5 of the paper for the queue,
the control law for the rate) so the comparison experiment (E9) can run the
two side by side.
"""

from .. import _lazy

_EXPORTS = {
    "FluidModel": ".bolot_shankar",
    "FluidTrajectory": ".bolot_shankar",
    "compare_fluid_and_fokker_planck": ".comparison",
    "FluidFPComparison": ".comparison",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
