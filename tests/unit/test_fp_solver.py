"""Unit tests for the Fokker-Planck solver (Equation 14)."""

import numpy as np
import pytest

from repro import (
    BoundaryConditions,
    FokkerPlanckSolver,
    GridParameters,
    JRJControl,
    SystemParameters,
    TimeParameters,
    assemble_generator,
    solve_stationary,
)
from repro.core.steady_state import estimate_steady_state, relaxation_time
from repro.exceptions import AnalysisError, ConfigurationError, StabilityError


@pytest.fixture
def solver(noisy_params, jrj_control, small_grid_params):
    return FokkerPlanckSolver(noisy_params, jrj_control,
                              grid_params=small_grid_params)


class TestFokkerPlanckSolver:
    def test_mass_is_conserved(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        for snapshot in result.snapshots:
            assert snapshot.moments.mass == pytest.approx(1.0, abs=1e-6)

    def test_density_stays_non_negative(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        assert np.all(result.final_density >= 0.0)

    def test_snapshots_include_initial_and_final(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        assert result.snapshots[0].time == 0.0
        assert result.snapshots[-1].time == pytest.approx(
            short_time_params.t_end, rel=0.05)
        assert len(result.snapshots) >= 3

    def test_mean_queue_grows_from_under_loaded_start(self, solver):
        # Starting under-loaded below the target, the controller ramps the
        # rate up and the mean queue grows towards the target.
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=60.0, dt=0.5, snapshot_every=10))
        assert result.mean_queue[-1] > result.mean_queue[0] + 2.0

    def test_long_run_settles_near_target(self, noisy_params, jrj_control,
                                          small_grid_params):
        solver = FokkerPlanckSolver(noisy_params, jrj_control,
                                    grid_params=small_grid_params)
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=250.0, dt=1.0, snapshot_every=10))
        # Mean queue close to the target, mean growth rate close to zero.
        assert abs(result.final_moments.mean_q - noisy_params.q_target) < 4.0
        assert abs(result.final_moments.mean_v) < 0.1

    def test_sigma_zero_keeps_density_compact(self, canonical_params,
                                              jrj_control, small_grid_params,
                                              short_time_params):
        solver = FokkerPlanckSolver(canonical_params, jrj_control,
                                    grid_params=small_grid_params)
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        assert result.final_moments.std_q < 3.0

    def test_larger_sigma_gives_larger_spread(self, canonical_params,
                                              jrj_control, small_grid_params):
        time_params = TimeParameters(t_end=80.0, dt=1.0, snapshot_every=10)
        narrow = FokkerPlanckSolver(canonical_params.with_sigma(0.1),
                                    jrj_control, grid_params=small_grid_params)
        wide = FokkerPlanckSolver(canonical_params.with_sigma(0.6),
                                  jrj_control, grid_params=small_grid_params)
        result_narrow = narrow.solve_from_point(0.0, 0.5, time_params)
        result_wide = wide.solve_from_point(0.0, 0.5, time_params)
        assert (result_wide.final_moments.std_q
                > result_narrow.final_moments.std_q)

    def test_overflow_probability_decreases_with_buffer(self, solver):
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=100.0, dt=1.0, snapshot_every=10))
        p_small = result.overflow_probability(12.0)
        p_large = result.overflow_probability(25.0)
        assert 0.0 <= p_large <= p_small <= 1.0

    def test_custom_initial_density_is_normalised(self, solver,
                                                  short_time_params):
        density = 3.0 * solver.default_initial_density(4.0, 0.8)
        result = solver.solve(density, short_time_params)
        assert result.snapshots[0].moments.mass == pytest.approx(1.0, abs=1e-9)

    def test_wrong_shape_initial_density_rejected(self, solver,
                                                  short_time_params):
        with pytest.raises(StabilityError):
            solver.solve(np.ones((3, 3)), short_time_params)

    def test_absorbing_buffer_accumulates_mass(self, noisy_params, jrj_control):
        grid_params = GridParameters(q_max=15.0, nq=45, v_min=-1.2, v_max=1.2,
                                     nv=40)
        solver = FokkerPlanckSolver(
            noisy_params, jrj_control, grid_params=grid_params,
            boundary=BoundaryConditions(absorb_q_max=True))
        result = solver.solve_from_point(
            0.0, 0.8, TimeParameters(t_end=120.0, dt=1.0, snapshot_every=10))
        assert result.absorbed_mass >= 0.0
        assert result.final_moments.mass <= 1.0 + 1e-9

    @pytest.mark.parametrize("q_max", [8.0, 10.0])
    def test_grid_not_covering_target_rejected(self, jrj_control, q_max):
        # q_target = 10: the density would pile against q_max and drain
        # out unaccounted while absorbed_mass stayed zero.
        params = SystemParameters(sigma=0.5)
        grid_params = GridParameters(q_max=q_max, nq=80, nv=60)
        with pytest.raises(ConfigurationError, match="q_target"):
            FokkerPlanckSolver(params, jrj_control, grid_params=grid_params)
        # A finite buffer that absorbs at q_max is a model, not a mistake.
        FokkerPlanckSolver(params, jrj_control, grid_params=grid_params,
                           boundary=BoundaryConditions(absorb_q_max=True))
        # The stationary path has no absorbing option: it must refuse the
        # grid before factorizing, not fail to converge after.
        with pytest.raises(ConfigurationError, match="q_target"):
            assemble_generator(params, grid_params=grid_params)
        for method in ("generator", "splitting"):
            for backend in ("numpy", "scipy"):
                with pytest.raises(ConfigurationError, match="q_target"):
                    solve_stationary(params, grid_params=grid_params,
                                     method=method, backend=backend)

    def test_mean_rate_series(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        rates = result.mean_rate(mu=1.0)
        assert rates.shape == result.times.shape
        assert np.all(rates >= 0.0)

    def test_final_marginal_q_integrates_to_one(self, solver, short_time_params):
        result = solver.solve_from_point(2.0, 0.6, short_time_params)
        marginal = result.final_marginal_q()
        assert np.sum(marginal) * result.grid.dq == pytest.approx(1.0, abs=1e-6)


class TestSteadyStateHelpers:
    def test_estimate_steady_state(self, solver):
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=200.0, dt=1.0, snapshot_every=5))
        estimate = estimate_steady_state(result)
        assert estimate.n_snapshots_used >= 1
        assert 0.0 < estimate.mean_queue < 30.0

    def test_estimate_requires_enough_snapshots(self, solver):
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=4.0, dt=2.0, snapshot_every=1))
        if len(result.snapshots) < 4:
            with pytest.raises(AnalysisError):
                estimate_steady_state(result)

    def test_invalid_tail_fraction_rejected(self, solver, short_time_params):
        result = solver.solve_from_point(0.0, 0.5, short_time_params)
        with pytest.raises(AnalysisError):
            estimate_steady_state(result, tail_fraction=0.0)

    def test_relaxation_time_is_within_horizon(self, solver):
        result = solver.solve_from_point(
            0.0, 0.5, TimeParameters(t_end=200.0, dt=1.0, snapshot_every=5))
        settle = relaxation_time(result, tolerance=0.25)
        assert 0.0 <= settle <= 200.0
