"""Reproduction of "Analysis of Dynamic Congestion Control Protocols:
A Fokker-Planck Approximation" (Mukherjee & Strikwerda, 1991).

The package provides, as documented in DESIGN.md:

* :mod:`repro.core` -- the Fokker-Planck solver for the joint density of
  queue length and queue growth rate under feedback rate control
  (Equation 14 of the paper),
* :mod:`repro.control` -- the rate- and window-control algorithm library
  (JRJ linear-increase/exponential-decrease and friends),
* :mod:`repro.characteristics` -- the phase-plane analysis of Section 5
  (quadrant drifts, convergent spiral, Theorem 1),
* :mod:`repro.multisource` -- fairness and exact shares with many sources
  (Section 6),
* :mod:`repro.delay` -- delayed feedback, oscillations and unfairness
  (Section 7),
* :mod:`repro.fluid` -- the Bolot-Shankar fluid-approximation baseline,
* :mod:`repro.queueing` -- a packet-level discrete-event simulator,
* :mod:`repro.stochastic` -- Langevin Monte-Carlo validation of the PDE,
* :mod:`repro.analysis`, :mod:`repro.workloads` -- metrics, report tables
  and canonical scenarios shared by the examples and benchmarks,
* :mod:`repro.runner` -- parallel experiment orchestration: declarative
  job specs, multi-dimensional grids, a worker-process executor and a
  content-addressed on-disk result cache (see ``docs/runner.md``).

Quick start::

    from repro import (SystemParameters, JRJControl, FokkerPlanckSolver,
                       TimeParameters)

    params = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2, sigma=0.3)
    control = JRJControl(c0=params.c0, c1=params.c1, q_target=params.q_target)
    solver = FokkerPlanckSolver(params, control)
    result = solver.solve_from_point(q0=0.0, rate0=0.5,
                                     time_params=TimeParameters(t_end=100.0))
    print(result.final_moments.mean_q, result.final_moments.std_q)
"""

from . import _lazy

__version__ = "1.2.0"

_EXPORTS = {
    # configuration
    "SystemParameters": ".config",
    "GridParameters": ".config",
    "TimeParameters": ".config",
    "SourceParameters": ".config",
    "DelayParameters": ".config",
    # exceptions
    "ReproError": ".exceptions",
    "ConfigurationError": ".exceptions",
    "GridError": ".exceptions",
    "ConvergenceError": ".exceptions",
    "StabilityError": ".exceptions",
    "SimulationError": ".exceptions",
    "AnalysisError": ".exceptions",
    "TransientJobError": ".exceptions",
    "WorkerCrashError": ".exceptions",
    "JobTimeoutError": ".exceptions",
    "ResultTransportError": ".exceptions",
    "NumericalHealthError": ".exceptions",
    "NonFiniteStateError": ".exceptions",
    "MassConservationError": ".exceptions",
    "NegativeDensityError": ".exceptions",
    "QueueInvariantError": ".exceptions",
    "EventBudgetError": ".exceptions",
    "SimTimeError": ".exceptions",
    "StepSizeError": ".exceptions",
    "ResidualHealthError": ".exceptions",
    # numerical health monitoring
    "HealthReport": ".health",
    "HealthLog": ".health",
    "HealthMonitor": ".health",
    "resolve_health": ".health",
    # control laws
    "RateControl": ".control",
    "WindowControl": ".control",
    "JRJControl": ".control",
    "LinearIncreaseLinearDecrease": ".control",
    "MultiplicativeIncreaseMultiplicativeDecrease": ".control",
    "JacobsonWindow": ".control",
    "DECbitWindow": ".control",
    "create_control": ".control",
    "available_controls": ".control",
    # Fokker-Planck core
    "FokkerPlanckSolver": ".core",
    "FokkerPlanckResult": ".core",
    "BoundaryConditions": ".core",
    "DensityMoments": ".core",
    "ReducedSystemSolver": ".core",
    "compute_moments": ".core",
    "marginal_q": ".core",
    "marginal_v": ".core",
    "tail_probability": ".core",
    "SparseOperator": ".core",
    "DiscreteGenerator": ".core",
    "assemble_generator": ".core",
    "SteadyStateEstimate": ".core",
    "estimate_steady_state": ".core",
    # characteristics / Section 5
    "CharacteristicBatch": ".characteristics",
    "CharacteristicTrajectory": ".characteristics",
    "integrate_characteristic": ".characteristics",
    "integrate_characteristic_batch": ".characteristics",
    "quadrant_drift_table": ".characteristics",
    "find_equilibrium": ".characteristics",
    "classify_equilibrium": ".characteristics",
    "analyze_spiral": ".characteristics",
    "analyze_spiral_batch": ".characteristics",
    "is_convergent_spiral": ".characteristics",
    "verify_theorem1": ".characteristics",
    "verify_theorem1_batch": ".characteristics",
    # multiple sources / Section 6
    "MultiSourceModel": ".multisource",
    "predicted_equilibrium_shares": ".multisource",
    "fairness_report": ".multisource",
    "jain_fairness_index": ".multisource",
    # delayed feedback / Section 7
    "DelayedSystem": ".delay",
    "DelayedFokkerPlanckSolver": ".delay",
    "RoundTripUpdateModel": ".delay",
    "critical_delay": ".delay",
    "measure_oscillation": ".delay",
    "delay_sweep": ".delay",
    "heterogeneous_delay_experiment": ".delay",
    # fluid baseline
    "FluidModel": ".fluid",
    "compare_fluid_and_fokker_planck": ".fluid",
    # packet-level simulator
    "Simulator": ".queueing",
    "SimulationResult": ".queueing",
    "NetworkConfig": ".queueing",
    "SourceConfig": ".queueing",
    "MultiHopConfig": ".queueing",
    "MultiHopSimulator": ".queueing",
    "available_scenarios": ".queueing",
    "build_scenario": ".queueing",
    # DES-vs-FP cross-validation
    "CrossValidationReport": ".crossval",
    "cross_validate": ".crossval",
    # gain design / stationary solves
    "DelayShiftedControl": ".design",
    "StationaryEstimate": ".design",
    "StationaryDensity": ".design",
    "solve_stationary": ".design",
    "solve_stationary_multisource": ".design",
    "compare_with_marching": ".design",
    "ObjectiveWeights": ".design",
    "OperatingPointScore": ".design",
    "GainGridScores": ".design",
    "score_gain_grid": ".design",
    "score_operating_point": ".design",
    "RankedGain": ".design",
    "GainSweepResult": ".design",
    "design_gains": ".design",
    # Monte-Carlo validation
    "LangevinModel": ".stochastic",
    "run_ensemble": ".stochastic",
    "compare_with_density": ".stochastic",
    # kernel backends
    "get_backend": ".numerics",
    "available_backends": ".numerics",
    # experiment orchestration
    "JobSpec": ".runner",
    "ExperimentSpec": ".runner",
    "MatrixResult": ".runner",
    "ResultCache": ".runner",
    "expand_grid": ".runner",
    "build_matrix": ".runner",
    "run_jobs": ".runner",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = ["__version__", *_EXPORTS]
