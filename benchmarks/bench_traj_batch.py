"""Batched-trajectory benchmark: scalar characteristic loop versus the
vectorized engine.

Runs a Theorem-1 contraction sweep over a ``c0 × c1`` grid of
Jain/Ramakrishnan/Chiu control gains (256 trajectories at the full setting)
twice per round:

* ``scalar``  -- the per-point loop the repository used before the batched
  engine: one :func:`repro.characteristics.verify_theorem1` call (one
  scalar RK4 integration) per grid point;
* ``batched`` -- one :func:`repro.characteristics.verify_theorem1_batch`
  call integrating the whole grid as a single ``(batch, 2)`` state block.

Rounds are interleaved so machine-load drift affects both sides equally and
the per-side minimum is reported.  The record is printed and written to
``BENCH_traj_batch.json`` at the repository root.

The assertions guard *correctness only*: every batched trajectory must be
bit-identical to its scalar counterpart, every Theorem-1 verdict must
match, and the batch-of-one case must reproduce ``integrate_fixed``
exactly.  Timing is recorded, never asserted, so a loaded CI machine cannot
turn a measurement into a test failure.  Pass ``--smoke`` (the CI setting)
for a shorter horizon with the same grid and assertions.
"""

import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from repro import SystemParameters
from repro.characteristics import (
    integrate_characteristic,
    integrate_characteristic_batch,
    verify_theorem1,
    verify_theorem1_batch,
)
from repro.control.jrj import JRJControl
from repro.numerics.ode import integrate_fixed

REPO_ROOT = Path(__file__).resolve().parents[1]
OUTPUT_PATH = REPO_ROOT / "BENCH_traj_batch.json"

PARAMS = SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2)
C0_VALUES = np.linspace(0.02, 0.2, 16)
C1_VALUES = np.linspace(0.1, 0.6, 16)
DT = 0.05


def _grid_columns():
    return {
        "c0": np.repeat(C0_VALUES, C1_VALUES.size),
        "c1": np.tile(C1_VALUES, C0_VALUES.size),
    }


def _scalar_sweep(t_end):
    return [
        verify_theorem1(replace(PARAMS, c0=float(c0), c1=float(c1)),
                        t_end=t_end, dt=DT)
        for c0 in C0_VALUES for c1 in C1_VALUES
    ]


def _batched_sweep(t_end):
    return verify_theorem1_batch(PARAMS, t_end=t_end, dt=DT,
                                 columns=_grid_columns())


def _assert_single_trajectory_parity(t_end):
    """Batch of one must reproduce the scalar integrate_fixed bit for bit."""
    control = JRJControl(c0=PARAMS.c0, c1=PARAMS.c1, q_target=PARAMS.q_target)

    def rhs(_t, state):
        q, lam = state
        dq = lam - PARAMS.mu
        if q <= 0.0 and dq < 0.0:
            dq = 0.0
        return np.array([dq, control.drift(q, lam)])

    def project(state):
        return np.array([max(state[0], 0.0), max(state[1], 0.0)])

    reference = integrate_fixed(rhs, [0.0, 0.5], t_end=t_end, dt=DT,
                                projection=project)
    batch = integrate_characteristic_batch(control, PARAMS, 0.0, 0.5,
                                           t_end=t_end, dt=DT)
    member = batch.trajectory(0)
    assert np.array_equal(reference.times, member.times)
    assert np.array_equal(reference.states[:, 0], member.queue)
    assert np.array_equal(reference.states[:, 1], member.rate)
    scalar = integrate_characteristic(control, PARAMS, 0.0, 0.5,
                                      t_end=t_end, dt=DT)
    assert np.array_equal(scalar.queue, member.queue)
    assert np.array_equal(scalar.rate, member.rate)


def _assert_sweep_parity(scalar_sweep, batched_sweep):
    """Every grid point: bit-identical trajectory, identical verdict."""
    assert len(scalar_sweep) == len(batched_sweep)
    verdict_mismatches = 0
    for scalar, batched in zip(scalar_sweep, batched_sweep, strict=True):
        assert np.array_equal(scalar.trajectory.queue,
                              batched.trajectory.queue)
        assert np.array_equal(scalar.trajectory.rate, batched.trajectory.rate)
        assert scalar.final_queue_error == batched.final_queue_error
        assert scalar.final_rate_error == batched.final_rate_error
        assert scalar.mean_contraction_ratio == batched.mean_contraction_ratio
        if scalar.converges != batched.converges:
            verdict_mismatches += 1
    assert verdict_mismatches == 0


def test_traj_batch_speedup(smoke: Optional[bool] = None):
    if smoke is None:
        smoke = "--smoke" in sys.argv
    rounds = 2 if smoke else 3
    t_end = 40.0 if smoke else 120.0

    _assert_single_trajectory_parity(t_end)

    # Warm both paths, then gate correctness once outside the timed rounds.
    scalar_sweep = _scalar_sweep(t_end)
    batched_sweep = _batched_sweep(t_end)
    _assert_sweep_parity(scalar_sweep, batched_sweep)

    scalar_seconds = []
    batched_seconds = []
    for _ in range(rounds):
        started = time.perf_counter()
        scalar_sweep = _scalar_sweep(t_end)
        scalar_seconds.append(time.perf_counter() - started)

        started = time.perf_counter()
        batched_sweep = _batched_sweep(t_end)
        batched_seconds.append(time.perf_counter() - started)

    best_scalar = min(scalar_seconds)
    best_batched = min(batched_seconds)
    record = {
        "benchmark": "traj_batch",
        "config": {
            "n_trajectories": int(C0_VALUES.size * C1_VALUES.size),
            "c0_range": [float(C0_VALUES[0]), float(C0_VALUES[-1])],
            "c1_range": [float(C1_VALUES[0]), float(C1_VALUES[-1])],
            "t_end": t_end,
            "dt": DT,
            "smoke": smoke,
        },
        "rounds": rounds,
        "scalar_seconds": round(best_scalar, 4),
        "batched_seconds": round(best_batched, 4),
        "speedup": round(best_scalar / best_batched, 3),
        "n_converged": sum(v.converges for v in batched_sweep),
        "trajectories_bit_identical": True,
        "verdicts_identical": True,
    }
    OUTPUT_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record))


if __name__ == "__main__":
    test_traj_batch_speedup()
