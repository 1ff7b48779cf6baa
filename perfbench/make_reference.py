"""Generate ``reference.json``: the benchmark's fixed reference data.

Run once, from the repository root::

    PYTHONPATH=src python3 perfbench/make_reference.py

The benchmark reads the file on every run and never recomputes it.  It
holds three things:

* ``mc_transient`` -- Langevin Monte-Carlo mean and std of the queue at
  t=30, started from the Fokker-Planck initial density of the fp-solve
  workload (the narrow Gaussian ``FokkerPlanckSolver.default_initial_density``
  builds around ``(q0=0, lambda0=0.5)`` on the 200x120 grid).  The initial
  density is sampled into ``TRANSIENT_GROUPS`` start points; each start point
  runs its own seeded ensemble, so the groups are independent draws and
  their spread gives the standard errors (batch means).
* ``mc_stationary`` -- the long-run mean and std of the queue: ensembles
  started at the operating point, pooled over every recorded time after a
  burn-in.  Groups again give batch-mean standard errors.
* ``des_events_executed`` -- the exact event count of the des-dumbbell
  scenario for each scenario seed the benchmark maps its ``--seed`` onto.

All Monte-Carlo runs use ``repro.stochastic.run_ensemble`` at dt=0.01.
"""

import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro import (  # noqa: E402
    FokkerPlanckSolver,
    JRJControl,
    Simulator,
    SystemParameters,
    build_scenario,
    run_ensemble,
)

import workloads  # noqa: E402

OUTPUT = Path(__file__).resolve().parent / "reference.json"

SEED = 20261017
DT = 0.01
TRANSIENT_GROUPS = 64
TRANSIENT_PATHS_PER_GROUP = 320
STATIONARY_GROUPS = 16
STATIONARY_PATHS_PER_GROUP = 1280
STATIONARY_T_END = 1000.0
STATIONARY_BURN_IN = 200.0


def _batch_summary(means, variances, second_moments=None):
    """Pooled mean/std of equal-size groups plus batch-mean standard errors."""
    groups = len(means)
    mean = statistics.fmean(means)
    if second_moments is None:
        second_moments = [v + m * m for m, v in zip(means, variances,
                                                      strict=True)]
    std = math.sqrt(statistics.fmean(second_moments) - mean * mean)
    group_stds = [math.sqrt(max(s - m * m, 0.0))
                  for m, s in zip(means, second_moments, strict=True)]
    return {
        "mean_q": mean,
        "std_q": std,
        "mean_q_stderr": statistics.stdev(means) / math.sqrt(groups),
        "std_q_stderr": statistics.stdev(group_stds) / math.sqrt(groups),
    }


def transient_reference(params, control) -> dict:
    grid_params = workloads.fp_grid(*workloads.MARCH_GRID)
    solver = FokkerPlanckSolver(params, control, grid_params=grid_params)
    density = solver.default_initial_density(workloads.Q0, workloads.RATE0)
    grid = solver.grid
    weights = (density / density.sum()).ravel()
    rng = np.random.default_rng(SEED)
    cells = rng.choice(weights.size, size=TRANSIENT_GROUPS, p=weights)
    q_centres, v_centres = grid.meshgrid()
    jitter = rng.uniform(-0.5, 0.5, size=(TRANSIENT_GROUPS, 2))
    means, variances = [], []
    for group, cell in enumerate(cells):
        q0 = max(float(q_centres.ravel()[cell] + jitter[group, 0] * grid.dq),
                 0.0)
        rate0 = float(v_centres.ravel()[cell] + jitter[group, 1] * grid.dv
                      + params.mu)
        ensemble = run_ensemble(control, params, q0, rate0,
                                t_end=workloads.T_END, dt=DT,
                                n_paths=TRANSIENT_PATHS_PER_GROUP,
                                seed=SEED + group, n_shards=1,
                                retention="moments")
        if abs(ensemble.times[-1] - workloads.T_END) > 1e-6:
            raise RuntimeError(f"ensemble ended at {ensemble.times[-1]}")
        means.append(float(ensemble.mean_queue_series[-1]))
        variances.append(float(ensemble.std_queue_series[-1]) ** 2)
    record = _batch_summary(means, variances)
    record.update({
        "t": workloads.T_END,
        "groups": TRANSIENT_GROUPS,
        "paths": TRANSIENT_GROUPS * TRANSIENT_PATHS_PER_GROUP,
        "start": "sampled from FokkerPlanckSolver.default_initial_density"
                 f"(q0={workloads.Q0}, rate0={workloads.RATE0}) on the "
                 f"{workloads.MARCH_GRID[0]}x{workloads.MARCH_GRID[1]} grid, "
                 "one start point per group",
    })
    return record


def stationary_reference(params, control) -> dict:
    means, second_moments = [], []
    for group in range(STATIONARY_GROUPS):
        ensemble = run_ensemble(control, params, params.q_target, params.mu,
                                t_end=STATIONARY_T_END, dt=DT,
                                n_paths=STATIONARY_PATHS_PER_GROUP,
                                seed=SEED + 1000 + group, n_shards=1,
                                retention="moments")
        window = ensemble.times > STATIONARY_BURN_IN
        mean_t = ensemble.mean_queue_series[window]
        std_t = ensemble.std_queue_series[window]
        means.append(float(np.mean(mean_t)))
        second_moments.append(float(np.mean(std_t ** 2 + mean_t ** 2)))
    record = _batch_summary(means, None, second_moments)
    record.update({
        "groups": STATIONARY_GROUPS,
        "paths": STATIONARY_GROUPS * STATIONARY_PATHS_PER_GROUP,
        "t_end": STATIONARY_T_END,
        "burn_in": STATIONARY_BURN_IN,
        "start": f"(q0={params.q_target}, rate0={params.mu}); moments "
                 "pooled over every recorded time after the burn-in",
    })
    return record


def des_event_counts() -> dict:
    counts = {}
    for scenario_seed in range(workloads.DES_SEEDS):
        config = build_scenario("dumbbell", n_sources=workloads.DES_SOURCES,
                                seed=scenario_seed)
        result = Simulator(config, retention="moments").run(
            workloads.DES_DURATION)
        counts[str(scenario_seed)] = int(result.events_executed)
    return counts


def main() -> None:
    params = SystemParameters(sigma=workloads.SIGMA, **workloads.CANONICAL)
    control = JRJControl(c0=params.c0, c1=params.c1,
                         q_target=params.q_target)
    started = time.perf_counter()
    reference = {
        "provenance": {
            "generator": "perfbench/make_reference.py",
            "method": "repro.stochastic.run_ensemble (Euler-Maruyama "
                      "Langevin Monte-Carlo), one seeded ensemble per group",
            "seed": SEED,
            "dt": DT,
            "params": {"sigma": workloads.SIGMA, **workloads.CANONICAL},
            "stderr": "batch means over the independent groups",
        },
        "mc_transient": transient_reference(params, control),
        "mc_stationary": stationary_reference(params, control),
        "des_events_executed": des_event_counts(),
    }
    reference["provenance"]["seconds"] = round(
        time.perf_counter() - started, 1)
    OUTPUT.write_text(json.dumps(reference, indent=1) + "\n")
    print(json.dumps({key: reference[key] for key in
                      ("mc_transient", "mc_stationary")}, indent=1))


if __name__ == "__main__":
    main()
