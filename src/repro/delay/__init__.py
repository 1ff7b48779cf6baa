"""Delayed feedback and its consequences (Section 7 of the paper).

When the controller adjusts its rate using queue information that is ``τ``
time units old, the characteristic system becomes a delay differential
equation,

    dq/dt = λ(t) − μ,        dλ/dt = g(q(t − τ), λ(t)).

Section 7's findings, all reproduced here, are:

* any positive delay turns the convergent spiral of Theorem 1 into a
  sustained oscillation (a limit cycle) of every individual user's rate and
  of the queue, with amplitude and period growing with the delay;
* when different sources see the queue after *different* delays, the
  algorithm also becomes unfair -- the source with the longer feedback path
  obtains less throughput -- which explains the observations of Jacobson
  [Jac 88] and Zhang [Zha 89] about long-haul connections.
"""

from .. import _lazy

_EXPORTS = {
    "RoundTripUpdateModel": ".round_trip",
    "predicted_round_trip_shares": ".round_trip",
    "critical_delay": ".stability",
    "delay_margin_table": ".stability",
    "DelayedSystem": ".delayed_model",
    "DelayedTrajectory": ".delayed_model",
    "OscillationSummary": ".oscillation",
    "measure_oscillation": ".oscillation",
    "delay_sweep": ".oscillation",
    "HeterogeneousDelayResult": ".heterogeneous",
    "heterogeneous_delay_experiment": ".heterogeneous",
    "delay_ratio_sweep": ".heterogeneous",
    "DelayedFokkerPlanckSolver": ".fokker_planck_delay",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
