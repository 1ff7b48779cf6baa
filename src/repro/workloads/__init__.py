"""Canonical scenarios and parameter sweeps used by examples and benchmarks.

Every experiment in EXPERIMENTS.md starts from one of the scenario builders
here so the parameters appearing in reports are defined in exactly one
place.  The grid runner evaluates a scenario-producing callable over a grid
of parameter values and collects the results.

The registered network topologies of :mod:`repro.queueing.scenarios`
(dumbbell, parking-lot, chain, mesh) are re-exported here so workloads can
be composed from one namespace.
"""

from .. import _lazy

_EXPORTS = {
    "PoissonArrivals": ".traffic",
    "OnOffArrivals": ".traffic",
    "estimate_sigma_from_counts": ".traffic",
    "sigma_for_poisson": ".traffic",
    "single_source_scenario": ".scenarios",
    "homogeneous_sources_scenario": ".scenarios",
    "heterogeneous_parameters_scenario": ".scenarios",
    "heterogeneous_delay_scenario": ".scenarios",
    "packet_level_jrj_scenario": ".scenarios",
    "packet_level_window_scenario": ".scenarios",
    "available_scenarios": "..queueing.scenarios",
    "build_scenario": "..queueing.scenarios",
    "chain_scenario": "..queueing.scenarios",
    "dumbbell_scenario": "..queueing.scenarios",
    "random_mesh_scenario": "..queueing.scenarios",
    "GridSweep": ".sweep",
    "run_grid": ".sweep",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
