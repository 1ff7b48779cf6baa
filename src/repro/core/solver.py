"""High-level Fokker-Planck solver for Equation 14.

:class:`FokkerPlanckSolver` time-integrates the joint density ``f(t, q, ν)``
of queue length and queue growth rate under

    f_t + ν f_q + (g f)_ν = (σ²/2) f_qq

using a pluggable marching scheme (see :mod:`repro.core.stepper`):

* ``stepper="axis"`` (the default) is the historical per-axis splitting —
  explicit upwind advection along ``q``, explicit upwind advection along
  ``ν``, Crank-Nicolson diffusion along ``q`` — kept bit-identical to the
  pre-seam solver;
* ``stepper="adi"`` is the Peaceman-Rachford 2-D operator-split scheme
  whose implicit half-steps run on the sparse-operator backend kernels and
  which scales to grids the dense per-axis path cannot reach.

The solver automatically sub-cycles the requested output step so the
explicit sub-steps respect the CFL condition, records snapshots of the full
density plus its moments, and tracks the probability mass absorbed at the
``q = q_max`` boundary when a finite buffer is modelled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from ..config import GridParameters, SystemParameters, TimeParameters
from ..control.base import RateControl
from ..exceptions import StabilityError
from ..health import HealthMonitor, consume_numerical_fault
from ..health.report import HealthLog
from ..numerics.backend import get_backend
from ..numerics.grids import PhaseGrid2D
from .boundary import BoundaryConditions
from .initial import gaussian_initial_density
from .stepper import get_stepper
from .moments import DensityMoments, compute_moments, marginal_q, tail_probability

__all__ = ["FokkerPlanckSolver", "FokkerPlanckResult", "DensitySnapshot"]


@dataclass
class DensitySnapshot:
    """The joint density and its moments at one output time."""

    time: float
    density: np.ndarray
    moments: DensityMoments


@dataclass
class FokkerPlanckResult:
    """Full output of a Fokker-Planck integration.

    Attributes
    ----------
    grid:
        The phase grid the densities live on.
    snapshots:
        Density snapshots at the requested output interval (always includes
        the initial and the final time).
    absorbed_mass:
        Total probability mass removed at the ``q = q_max`` boundary (zero
        unless a finite buffer was modelled).
    health:
        The :class:`~repro.health.HealthLog` of the run when health
        monitoring was active, else ``None``.
    """

    grid: PhaseGrid2D
    snapshots: List[DensitySnapshot] = field(default_factory=list)
    absorbed_mass: float = 0.0
    health: Optional[HealthLog] = None

    @property
    def times(self) -> np.ndarray:
        """Array of snapshot times."""
        return np.asarray([snap.time for snap in self.snapshots])

    @property
    def mean_queue(self) -> np.ndarray:
        """Mean queue length at every snapshot."""
        return np.asarray([snap.moments.mean_q for snap in self.snapshots])

    @property
    def std_queue(self) -> np.ndarray:
        """Queue-length standard deviation at every snapshot."""
        return np.asarray([snap.moments.std_q for snap in self.snapshots])

    @property
    def mean_growth_rate(self) -> np.ndarray:
        """Mean queue growth rate ``E[ν]`` at every snapshot."""
        return np.asarray([snap.moments.mean_v for snap in self.snapshots])

    def mean_rate(self, mu: float) -> np.ndarray:
        """Mean arrival rate ``E[λ] = E[ν] + μ`` at every snapshot."""
        return self.mean_growth_rate + mu

    @property
    def final_density(self) -> np.ndarray:
        """The joint density at the final snapshot."""
        return self.snapshots[-1].density

    @property
    def final_moments(self) -> DensityMoments:
        """Moments at the final snapshot."""
        return self.snapshots[-1].moments

    def final_marginal_q(self) -> np.ndarray:
        """Queue-length marginal density at the final time."""
        return marginal_q(self.final_density, self.grid)

    def overflow_probability(self, buffer_size: float) -> float:
        """``P(Q > buffer_size)`` at the final time."""
        return tail_probability(self.final_density, self.grid, buffer_size)


class FokkerPlanckSolver:
    """Operator-splitting integrator for the controlled-queue Fokker-Planck PDE.

    Parameters
    ----------
    params:
        Physical system parameters (service rate, σ, ...).
    control:
        Rate-control law supplying the drift ``g(q, λ)``.
    grid_params:
        Phase-plane discretisation.
    boundary:
        Boundary-condition policy (defaults to all-reflecting).
    delayed_queue_provider:
        Optional callable ``t → q_delayed`` giving the queue value the
        controller *sees* at time ``t``.  When supplied, the ν-drift is
        evaluated at that (scalar) delayed queue value for the whole grid
        instead of at each cell's own ``q``; this is the quasi-deterministic
        delayed-feedback approximation used in Section 7 experiments (see
        :mod:`repro.delay.fokker_planck_delay` for the driver that builds
        the provider self-consistently).
    """

    def __init__(self, params: SystemParameters, control: RateControl,
                 grid_params: Optional[GridParameters] = None,
                 boundary: Optional[BoundaryConditions] = None,
                 delayed_queue_provider: Optional[Callable[[float], float]] = None):
        self.params = params
        self.control = control
        self.grid_params = grid_params if grid_params is not None else GridParameters()
        self.boundary = boundary if boundary is not None else BoundaryConditions()
        self.boundary.check_grid_covers(self.grid_params.q_max,
                                        params.q_target)
        self.delayed_queue_provider = delayed_queue_provider
        self.grid = PhaseGrid2D.from_bounds(
            q_max=self.grid_params.q_max, nq=self.grid_params.nq,
            v_min=self.grid_params.v_min, v_max=self.grid_params.v_max,
            nv=self.grid_params.nv)
        # Pre-compute the (static) drift field for the undelayed case.
        q_mesh, v_mesh = self.grid.meshgrid()
        self._q_mesh = q_mesh
        self._v_mesh = v_mesh
        self._static_drift = np.asarray(
            control.drift_in_growth_coordinates(q_mesh, v_mesh, params.mu),
            dtype=float)
        # Kernel backend plus the marching stepper, which owns all reusable
        # hot-loop machinery (scratch arenas, preallocated kernel
        # workspaces, cached implicit operators); the solver keeps only the
        # ping-pong work buffer shared by every solve() on this instance.
        self.backend = get_backend(params.backend or None)
        self.stepper = get_stepper(params.stepper or None)(
            self.grid, params.sigma, self.backend, self.boundary)
        self._work_a = np.empty(self.grid.shape)

    def default_initial_density(self, q0: float, rate0: float) -> np.ndarray:
        """A narrow Gaussian around the starting point ``(q0, λ0)``.

        The widths are tied to the grid spacing so the initial condition is
        always resolvable.
        """
        return gaussian_initial_density(
            self.grid, q0, rate0 - self.params.mu,
            q_std=max(1.5 * self.grid.dq, 0.5),
            v_std=max(1.5 * self.grid.dv, 0.02))

    def _drift_field(self, time: float) -> np.ndarray:
        if self.delayed_queue_provider is None:
            return self._static_drift
        delayed_queue = float(self.delayed_queue_provider(time))
        return np.asarray(
            self.control.drift_in_growth_coordinates(
                np.full_like(self._q_mesh, delayed_queue), self._v_mesh,
                self.params.mu),
            dtype=float)

    def solve(self, initial_density: np.ndarray,
              time_params: Optional[TimeParameters] = None) -> FokkerPlanckResult:
        """Integrate the PDE from *initial_density* over the configured horizon.

        The output step is ``time_params.dt``; each output step is internally
        sub-cycled so the explicit advection sub-steps respect the CFL limit
        ``time_params.cfl``.
        """
        time_params = time_params if time_params is not None else TimeParameters()
        density = np.asarray(initial_density, dtype=float).copy()
        if density.shape != self.grid.shape:
            raise StabilityError(
                f"initial density shape {density.shape} does not match grid "
                f"{self.grid.shape}")
        density = self.grid.normalize(np.maximum(density, 0.0))
        if consume_numerical_fault("nan-density"):
            # Deterministic chaos hook: poison the centre cell so the
            # per-interval finiteness check (and its policies) can be
            # exercised end to end by the fault-injection suite.
            density[density.shape[0] // 2, density.shape[1] // 2] = np.nan

        monitor = HealthMonitor.create(self.params.health, where="core.solver")

        result = FokkerPlanckResult(grid=self.grid)
        result.snapshots.append(DensitySnapshot(
            time=0.0, density=density.copy(),
            moments=compute_moments(density, self.grid)))

        t = 0.0
        absorbed_total = 0.0
        output_dt = time_params.dt
        steps_between_snapshots = time_params.snapshot_every
        n_outputs = time_params.n_steps

        # Hoist the per-substep invariants.  With a static drift field (the
        # undelayed case) the drift, its interface decomposition, max |g| and
        # therefore the free-running CFL step are all constant over the whole
        # integration, so every substep reuses them -- and, because the
        # substep dt repeats, every implicit substep hits the stepper's
        # cached operator for its step size.
        grid = self.grid
        stepper = self.stepper
        boundary = self.boundary
        absorbing = boundary.absorb_q_max
        cfl = time_params.cfl
        static_drift = self.delayed_queue_provider is None
        stepper.begin(static_drift, monitor is not None)
        if static_drift:
            stepper.set_drift(self._static_drift)
            free_dt = stepper.free_running_dt(cfl)
        work = self._work_a
        advance = stepper.advance

        for output_index in range(1, n_outputs + 1):
            target_time = min(output_index * output_dt, time_params.t_end)
            while t < target_time - 1e-12:
                if static_drift:
                    dt = min(target_time - t, free_dt)
                else:
                    stepper.set_drift(self._drift_field(t))
                    dt = stepper.bounded_dt(cfl, target_time - t)
                density, work = advance(density, dt, work)
                if absorbing:
                    _, absorbed = boundary.apply_post_step(density, grid,
                                                           inplace=True)
                    absorbed_total += absorbed
                t += dt

            # density >= 0, so a plain sum is finite iff every cell is (no
            # cancellation can hide an inf or a NaN, and a non-finite value
            # can never become finite again) -- checking once per output
            # interval therefore catches every blow-up before a snapshot is
            # recorded.  With monitoring active the same cadence also covers
            # positivity and mass conservation, and a blow-up reports the
            # first offending cell index instead of just aborting.
            if monitor is None:
                if not (density.sum() < np.inf):
                    raise StabilityError(
                        f"Fokker-Planck density became non-finite at t={t:.4g}")
            else:
                monitor.check_fp_density(density, grid, t,
                                         absorbed=absorbed_total)
                # Steppers with internal intermediates (the ADI half-step
                # state) surface them to the monitor at the same cadence.
                stepper.record_health(monitor, t)

            if (output_index % steps_between_snapshots == 0
                    or output_index == n_outputs):
                result.snapshots.append(DensitySnapshot(
                    time=t, density=density.copy(),
                    moments=compute_moments(density, grid)))

        result.absorbed_mass = absorbed_total
        if monitor is not None:
            result.health = monitor.log
        return result

    def solve_from_point(self, q0: float, rate0: float,
                         time_params: Optional[TimeParameters] = None
                         ) -> FokkerPlanckResult:
        """Convenience wrapper: start from the default Gaussian around a point."""
        return self.solve(self.default_initial_density(q0, rate0), time_params)
