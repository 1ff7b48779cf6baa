"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro import GridParameters, JRJControl, SystemParameters, TimeParameters
from repro.numerics.grids import PhaseGrid2D, UniformGrid1D
from repro.queueing.events import ReferenceEventQueue


@pytest.fixture
def canonical_params() -> SystemParameters:
    """The canonical single-source parameter set used throughout the paper."""
    return SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2, sigma=0.0)


@pytest.fixture
def noisy_params() -> SystemParameters:
    """Canonical parameters with a positive diffusion coefficient."""
    return SystemParameters(mu=1.0, q_target=10.0, c0=0.05, c1=0.2, sigma=0.4)


@pytest.fixture
def jrj_control(canonical_params) -> JRJControl:
    """The JRJ control law matching the canonical parameters."""
    return JRJControl(c0=canonical_params.c0, c1=canonical_params.c1,
                      q_target=canonical_params.q_target)


@pytest.fixture
def small_grid_params() -> GridParameters:
    """A coarse phase grid that keeps PDE tests fast."""
    return GridParameters(q_max=30.0, nq=60, v_min=-1.2, v_max=1.2, nv=48)


@pytest.fixture
def short_time_params() -> TimeParameters:
    """A short integration horizon for PDE tests."""
    return TimeParameters(t_end=20.0, dt=0.5, snapshot_every=4)


@pytest.fixture
def phase_grid() -> PhaseGrid2D:
    """A small stand-alone phase grid for grid-level unit tests."""
    return PhaseGrid2D(UniformGrid1D(0.0, 20.0, 40), UniformGrid1D(-1.0, 1.0, 20))


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for reproducible stochastic tests."""
    return np.random.default_rng(20260614)


@pytest.fixture
def reference_engine(monkeypatch):
    """Run the packet simulators on the seed event engine for this test.

    :class:`~repro.queueing.Simulator` and
    :class:`~repro.queueing.MultiHopSimulator` build their event queue from
    the module-level ``EventQueue`` name; swapping in
    :class:`~repro.queueing.ReferenceEventQueue` there lets parity tests
    compare the production engine against the preserved seed engine.
    Request it with ``request.getfixturevalue`` to switch engines part-way
    through a test.
    """
    for name in ("repro.queueing.simulator", "repro.queueing.multihop"):
        monkeypatch.setattr(importlib.import_module(name), "EventQueue",
                            ReferenceEventQueue)
