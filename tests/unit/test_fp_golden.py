"""Golden-value regression tests for the Fokker-Planck hot path.

The pinned numbers below were produced by the seed implementation (commit
``c0f79ee``, pure per-call Thomas solve and allocating kernels) on the
canonical small test configs, plus one at the density-evolution scale
(``hot_path``: 200 x 101, the grid the hot-path optimisations were tuned
on).  The optimized hot path must reproduce them:
bit-for-bit where the operation order is unchanged (the σ = 0 purely
hyperbolic path) and to ≤ 1e-12 where cached/reordered kernels are used
(the dense combined Crank-Nicolson operator, pre-scaled advection).

Every test runs once per registered numerics backend, so the golden pins
gate the scipy kernels (when installed) exactly as hard as the pure-numpy
ones.
"""

import numpy as np
import pytest

from repro import (
    FokkerPlanckSolver,
    GridParameters,
    JRJControl,
    SystemParameters,
    TimeParameters,
)
from repro.delay.fokker_planck_delay import DelayedFokkerPlanckSolver
from repro.numerics.backend import available_backends

#: (mass, mean_q, var_q, mean_v, var_v, covariance) at the final snapshot,
#: computed with the seed implementation.
SEED_GOLDEN = {
    "noisy": (1.000000000000006, 5.0646349142869935, 7.959629990369998,
              0.5608506597917168, 0.054725986671031054, 0.1949394760669374),
    "sigma0": (1.0, 4.573574451663091, 7.371550731665107,
               0.5755212114835607, 0.0502239132599258, 0.3054008878349241),
    "delayed": (0.999999999998196, 5.008999460122174, 7.5325961108530946,
                0.5997978366329594, 0.04123079497265126, 0.3677294804173208),
    "highsigma": (0.9999999999998861, 4.796532807903856, 12.58468646800706,
                  0.041429428582635715, 0.048955174714521286,
                  -0.2733250825247134),
    "hot_path": (1.0000000000000253, 3.771215700880212, 4.335711364953971,
                 0.49776951038434586, 0.029044229810130783,
                 0.1960349472501256),
}

GRID = GridParameters(q_max=30.0, nq=60, v_min=-1.2, v_max=1.2, nv=48)
TIME = TimeParameters(t_end=20.0, dt=0.5, snapshot_every=4)
CONTROL_KW = dict(c0=0.05, c1=0.2, q_target=10.0)


def _moment_tuple(moments):
    return (moments.mass, moments.mean_q, moments.var_q,
            moments.mean_v, moments.var_v, moments.covariance)


def _assert_close(actual, expected, tol):
    for got, want in zip(actual, expected, strict=True):
        assert got == pytest.approx(want, abs=tol)


@pytest.fixture(params=available_backends())
def backend_name(request):
    return request.param


class TestSeedGoldenValues:
    def test_noisy_canonical(self, jrj_control, backend_name):
        params = SystemParameters(mu=1.0, sigma=0.4, backend=backend_name,
                                  **CONTROL_KW)
        result = FokkerPlanckSolver(params, jrj_control, grid_params=GRID
                                    ).solve_from_point(2.0, 0.6, TIME)
        _assert_close(_moment_tuple(result.final_moments),
                      SEED_GOLDEN["noisy"], tol=1e-12)

    def test_sigma_zero_is_bitwise_identical(self, jrj_control, backend_name):
        # No diffusion -> the whole substep chain keeps the seed's exact
        # floating-point operation order, so the agreement must be exact.
        params = SystemParameters(mu=1.0, sigma=0.0, backend=backend_name,
                                  **CONTROL_KW)
        result = FokkerPlanckSolver(params, jrj_control, grid_params=GRID
                                    ).solve_from_point(2.0, 0.6, TIME)
        assert _moment_tuple(result.final_moments) == SEED_GOLDEN["sigma0"]

    def test_delayed_feedback(self, jrj_control, backend_name):
        params = SystemParameters(mu=1.0, sigma=0.4, backend=backend_name,
                                  **CONTROL_KW)
        solver = DelayedFokkerPlanckSolver(params, jrj_control, delay=2.0,
                                           grid_params=GRID)
        result = solver.solve_from_point(2.0, 0.6, TIME)
        _assert_close(_moment_tuple(result.final_moments),
                      SEED_GOLDEN["delayed"], tol=1e-12)

    def test_high_sigma_subcycled_diffusion(self, jrj_control, backend_name):
        params = SystemParameters(mu=1.0, sigma=2.0, backend=backend_name,
                                  **CONTROL_KW)
        result = FokkerPlanckSolver(params, jrj_control, grid_params=GRID
                                    ).solve_from_point(
            2.0, 0.6, TimeParameters(t_end=10.0, dt=0.5, snapshot_every=4))
        _assert_close(_moment_tuple(result.final_moments),
                      SEED_GOLDEN["highsigma"], tol=1e-12)

    def test_hot_path_scale(self, backend_name):
        # The seed's q_max=40 grid at 200 x 101 from (0, 0.5): the dense
        # combined Crank-Nicolson operator and the pre-scaled advection
        # kernels at the size they were optimised for.
        params = SystemParameters(mu=1.0, sigma=0.5, backend=backend_name,
                                  **CONTROL_KW)
        grid = GridParameters(q_max=40.0, nq=200, v_min=-1.5, v_max=1.5,
                              nv=101)
        result = FokkerPlanckSolver(params, JRJControl(**CONTROL_KW),
                                    grid_params=grid).solve_from_point(
            0.0, 0.5, TimeParameters(t_end=20.0, dt=0.5, snapshot_every=10))
        # t = 0 plus every tenth of the 40 output steps, as the seed kept.
        assert len(result.snapshots) == 5
        _assert_close(_moment_tuple(result.final_moments),
                      SEED_GOLDEN["hot_path"], tol=1e-12)

    def test_repeated_solves_are_deterministic(self, jrj_control,
                                               backend_name):
        # The cached operators and reused scratch buffers must not leak
        # state between solves on the same instance.  The first solve warms
        # the operator cache (its first use of each diffusion number runs
        # the factorized step before the dense upgrade), so it may differ
        # from later solves at rounding level; solves on a warm cache must
        # be exactly reproducible.
        params = SystemParameters(mu=1.0, sigma=0.4, backend=backend_name,
                                  **CONTROL_KW)
        solver = FokkerPlanckSolver(params, jrj_control, grid_params=GRID)
        first = solver.solve_from_point(2.0, 0.6, TIME)
        second = solver.solve_from_point(2.0, 0.6, TIME)
        third = solver.solve_from_point(2.0, 0.6, TIME)
        assert np.allclose(first.final_density, second.final_density,
                           rtol=0.0, atol=1e-13)
        assert np.array_equal(second.final_density, third.final_density)
        assert _moment_tuple(second.final_moments) == _moment_tuple(
            third.final_moments)
