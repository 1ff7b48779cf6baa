"""Steady-state extraction and relaxation-time estimation.

Theorem 1 of the paper states that without feedback delay the reduced system
converges to the limit point ``(q̂, μ)``; with σ > 0 the full Fokker-Planck
density relaxes towards a stationary density concentrated around that point.
These helpers quantify both statements from a solver result: the long-run
moments (averaged over the tail of the run) and the time needed for the
mean queue to settle within a tolerance band of its final value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ParameterDictMixin
from ..exceptions import AnalysisError
from .solver import FokkerPlanckResult

__all__ = ["SteadyStateEstimate", "estimate_steady_state", "relaxation_time"]


@dataclass(frozen=True)
class SteadyStateEstimate(ParameterDictMixin):
    """Long-run operating point extracted from the tail of a FP run.

    Mixes in :class:`repro.config.ParameterDictMixin` so estimates round-trip
    through plain dictionaries and cache cleanly through the runner.
    """

    mean_queue: float
    std_queue: float
    mean_growth_rate: float
    tail_fraction: float
    n_snapshots_used: int


def estimate_steady_state(result: FokkerPlanckResult,
                          tail_fraction: float = 0.25) -> SteadyStateEstimate:
    """Average the moments over the final *tail_fraction* of the snapshots.

    Raises
    ------
    AnalysisError
        If the run has fewer than four snapshots or the tail fraction is not
        in ``(0, 1]``.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise AnalysisError("tail_fraction must lie in (0, 1]")
    snapshots = result.snapshots
    if len(snapshots) < 4:
        raise AnalysisError("need at least four snapshots for a steady-state estimate")
    n_tail = max(1, int(round(tail_fraction * len(snapshots))))
    tail = snapshots[-n_tail:]
    mean_queue = float(np.mean([snap.moments.mean_q for snap in tail]))
    std_queue = float(np.mean([snap.moments.std_q for snap in tail]))
    mean_growth = float(np.mean([snap.moments.mean_v for snap in tail]))
    return SteadyStateEstimate(mean_queue=mean_queue, std_queue=std_queue,
                               mean_growth_rate=mean_growth,
                               tail_fraction=tail_fraction,
                               n_snapshots_used=n_tail)


def relaxation_time(result: FokkerPlanckResult, tolerance: float = 0.1
                    ) -> float:
    """Time after which the mean queue stays within *tolerance* of its final value.

    The tolerance is relative to the final mean queue (with an absolute
    floor of one packet so an empty-queue equilibrium does not make the
    criterion impossible to satisfy).

    Raises
    ------
    AnalysisError
        If the trajectory never settles inside the band.
    """
    times = result.times
    means = result.mean_queue
    final = float(means[-1])
    band = max(tolerance * abs(final), 1.0 * tolerance)
    inside = np.abs(means - final) <= band
    # Find the earliest index after which every snapshot is inside the band.
    for index in range(len(means)):
        if np.all(inside[index:]):
            return float(times[index])
    raise AnalysisError("mean queue never settled within the tolerance band")
