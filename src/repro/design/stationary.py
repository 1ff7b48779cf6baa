"""Direct stationary solves of the discrete Fokker-Planck operator.

Instead of time-marching Equation 14 to ``t_end`` and averaging the tail
(:mod:`repro.core.steady_state`), the heavy-traffic questions of the paper
can be answered directly: the stationary density is the null vector of the
assembled discrete operator from :mod:`repro.core.generator`, solved through
the :mod:`repro.numerics.backend` registry (dense row-replacement on the
numpy reference backend, ``splu`` shifted inverse iteration on scipy).

Two operator choices are exposed:

* ``method="splitting"`` (the default) solves ``S(dt) p = 0`` where
  ``S(dt)`` is the fixed-point matrix of one marching substep.  Its null
  vector *is* the density the marching solver converges to (splitting error
  included), so the solve agrees with the time-marched tail to solver
  tolerance — the property the golden tests pin at 1e-6 relative.
* ``method="generator"`` solves the continuous-time generator ``L p = 0``,
  the ``dt → 0`` limit; it differs from any finite-``dt`` march by the
  ``O(dt)`` splitting error.

Delayed feedback needs care: the scalar mean-queue closure used by
:class:`repro.delay.fokker_planck_delay.DelayedFokkerPlanckSolver` sustains
a limit cycle (the Section 7 phenomenon), so it has *no* stationary density
to solve for.  The stationary treatment instead uses the first-order
characteristic closure ``Q(t − τ) ≈ q − τ ν`` (the queue a cell's
trajectory had one delay earlier), wrapping the control law into the static
effective drift ``g(q − τν, λ)`` of :class:`DelayShiftedControl`.  That
field keeps the destabilising tilt of delay, reduces to the undelayed law
at ``τ = 0``, has a genuine stationary density, and can be marched by the
unmodified solver — which is exactly how the golden tests cross-check it.
Multi-source configurations reuse the Section 6 aggregate reduction
(:class:`repro.multisource.AggregateControl`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..config import (GridParameters, ParameterDictMixin, SourceParameters,
                      SystemParameters, TimeParameters)
from ..control.base import RateControl
from ..core.generator import DiscreteGenerator, assemble_generator
from ..core.initial import gaussian_initial_density
from ..core.moments import DensityMoments, compute_moments
from ..core.steady_state import SteadyStateEstimate
from ..exceptions import ConfigurationError, ConvergenceError
from ..health import HealthMonitor
from ..health.report import HealthLog
from ..numerics.backend import get_backend
from ..numerics.grids import PhaseGrid2D

__all__ = [
    "StationaryEstimate",
    "StationaryDensity",
    "MultiSourceStationary",
    "DelayShiftedControl",
    "solve_stationary",
    "solve_stationary_multisource",
    "compare_with_marching",
]


class DelayShiftedControl(RateControl):
    """First-order delay closure: the drift sees ``q − τ ν`` instead of ``q``.

    Along a characteristic, the queue one delay ``τ`` earlier is
    ``Q(t − τ) = q − τ ν + O(τ²)``; evaluating the wrapped law there gives a
    *static* effective drift field for delayed feedback, in contrast with
    the time-dependent mean-queue closure of
    :class:`repro.delay.fokker_planck_delay.DelayedFokkerPlanckSolver`
    (whose limit cycle has no stationary density).  ``τ = 0`` recovers the
    wrapped law exactly.
    """

    def __init__(self, inner: RateControl, delay: float, mu: float):
        if delay < 0.0:
            raise ConfigurationError("delay must be non-negative")
        self.inner = inner
        self.delay = float(delay)
        self.mu = float(mu)

    def drift(self, queue_length, rate):
        queue_length = np.asarray(queue_length, dtype=float)
        rate = np.asarray(rate, dtype=float)
        growth = rate - self.mu
        shifted = np.maximum(queue_length - self.delay * growth, 0.0)
        result = self.inner.drift(shifted, rate)
        if np.ndim(result) == 0 and queue_length.shape == ():
            return float(result)
        return result

    def describe(self) -> str:
        return (f"{self.inner.describe()} with first-order delay closure "
                f"tau={self.delay:g}")


@dataclass(frozen=True)
class StationaryEstimate(ParameterDictMixin):
    """Scalar summary of one stationary solve (JSON/cache friendly).

    Mixes in :class:`repro.config.ParameterDictMixin`, so design jobs cache
    these through :mod:`repro.runner` exactly like parameter dataclasses.
    """

    mean_queue: float
    std_queue: float
    mean_growth_rate: float
    std_growth_rate: float
    residual: float
    dt: float
    method: str
    backend: str
    iterations: int

    def to_steady_state(self, tail_fraction: float = 1.0
                        ) -> SteadyStateEstimate:
        """View as a :class:`SteadyStateEstimate` (e.g. to seed another solve)."""
        return SteadyStateEstimate(mean_queue=self.mean_queue,
                                   std_queue=self.std_queue,
                                   mean_growth_rate=self.mean_growth_rate,
                                   tail_fraction=tail_fraction,
                                   n_snapshots_used=0)


@dataclass
class StationaryDensity:
    """A stationary solve result: the density plus its summary moments."""

    density: np.ndarray
    grid: PhaseGrid2D
    moments: DensityMoments
    estimate: StationaryEstimate
    #: Health log of the solve (``None`` when the monitor is off).
    health: Optional[HealthLog] = None


@dataclass
class MultiSourceStationary:
    """Aggregate stationary density with the Section 6 share decomposition."""

    stationary: StationaryDensity
    shares: np.ndarray
    source_names: list
    mu: float

    def mean_source_rates(self) -> np.ndarray:
        """Per-source stationary mean rates ``shareᵢ · E[Λ]``."""
        aggregate_rate = self.stationary.moments.mean_v + self.mu
        return aggregate_rate * self.shares


def _resolve_dt(generator: DiscreteGenerator, dt: Optional[float]) -> float:
    """Default ``dt``: the library default capped at the free-running CFL step."""
    if dt is not None:
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        return float(dt)
    return min(TimeParameters().dt, generator.max_stable_dt())


def _seed_density(grid: PhaseGrid2D, seed: Optional[SteadyStateEstimate],
                  q_center: float) -> np.ndarray:
    """Gaussian guess density from a tail estimate (or around the target)."""
    if seed is not None:
        q_center = seed.mean_queue
        v_center = seed.mean_growth_rate
        q_std = max(seed.std_queue, 1.5 * grid.dq, 0.5)
    else:
        v_center = 0.0
        q_std = max(1.5 * grid.dq, 0.5)
    v_std = max(1.5 * grid.dv, 0.02)
    q_center = float(np.clip(q_center, 0.0, grid.q_grid.upper))
    v_center = float(np.clip(v_center, grid.v_grid.lower, grid.v_grid.upper))
    return gaussian_initial_density(grid, q_center, v_center,
                                    q_std=q_std, v_std=v_std)


def _solve_operator(generator: DiscreteGenerator, method: str, dt: float,
                    backend_name: str, guess: np.ndarray, tol: float,
                    max_iterations: int):
    """Run the null-vector solve for one assembled operator."""
    if method == "splitting":
        operator = generator.splitting_matrix(dt)
    elif method in ("generator", "adi"):
        # The Peaceman-Rachford recurrence fixes exactly the null vector of
        # the continuous discrete generator (no splitting error), so the
        # stationary density of an ADI march is the "generator" solve;
        # "adi" is accepted as an alias to make that correspondence
        # explicit for callers marching with stepper="adi".
        operator = generator.generator()
    else:
        raise ConfigurationError(
            f"unknown stationary method {method!r}; choose 'splitting', "
            f"'generator' or 'adi'")
    backend = get_backend(backend_name)
    vector, info = backend.stationary_null_vector(
        operator.rows, operator.cols, operator.values, operator.n,
        guess=guess.ravel(), weights=generator.mass_weights,
        tol=tol, max_iterations=max_iterations)
    return vector.reshape(generator.grid.shape), info


def solve_stationary(params: SystemParameters,
                     control: Optional[RateControl] = None,
                     grid_params: Optional[GridParameters] = None,
                     *,
                     dt: Optional[float] = None,
                     method: str = "splitting",
                     backend: Optional[str] = None,
                     seed: Optional[SteadyStateEstimate] = None,
                     delay: float = 0.0,
                     tol: float = 1e-9,
                     max_iterations: int = 50,
                     health: Optional[str] = None) -> StationaryDensity:
    """Solve for the stationary density of one operating point directly.

    Parameters
    ----------
    params, control, grid_params:
        As for :class:`repro.core.solver.FokkerPlanckSolver`; the control
        defaults to the JRJ law built from *params*.
    dt:
        Substep for ``method="splitting"`` (defaults to the library default
        step capped at the free-running CFL limit).  A marching run with
        ``TimeParameters.dt`` at or below the CFL limit takes uniform
        substeps of exactly its ``dt``, so passing that value here makes the
        solve match that run's tail to solver tolerance.
    method:
        ``"splitting"`` (matches the per-axis marching fixed point),
        ``"generator"`` (continuous-time operator), or ``"adi"`` (alias of
        ``"generator"``: the ADI stepper's fixed point carries no
        splitting error, so its marched tail is the generator null
        vector).  At large grids (nq in the thousands) use the scipy
        backend, whose sparse ``splu`` inverse iteration scales where the
        numpy dense reference solve cannot.
    backend:
        Backend registry name; defaults to ``params.backend`` resolution.
    seed:
        Optional tail estimate used to build the initial guess (and to pick
        the pivot row of the solve).
    delay:
        Feedback delay ``τ ≥ 0``.  A positive value wraps the control into
        the first-order :class:`DelayShiftedControl` closure (the scalar
        mean-queue closure of the delayed marching solver has no stationary
        density; see the module docstring).
    tol, max_iterations:
        Null-solve tolerance (relative residual) and iteration cap.
    health:
        Numerical health policy (falls back to ``params.health``, then the
        environment / the ``observe`` default).  The monitor checks the
        solve's residual health: a stalled solve is recorded (and typed
        :class:`~repro.exceptions.ResidualHealthError` replaces the plain
        ``ConvergenceError`` under ``strict``); ``"off"`` is bit-identical
        to the unmonitored solve.

    Raises
    ------
    GridError
        If the grid's ``q_max`` does not exceed ``params.q_target`` (checked
        before any factorization).
    ConvergenceError
        If the null solve stalls.
    """
    monitor = HealthMonitor.create(health or params.health or None,
                                   where="design.stationary")
    if control is None:
        from ..control.jrj import jrj_from_parameters
        control = jrj_from_parameters(params)
    if delay > 0.0:
        control = DelayShiftedControl(control, delay, params.mu)
    generator = assemble_generator(params, control=control,
                                   grid_params=grid_params)
    step = _resolve_dt(generator, dt)
    guess = _seed_density(generator.grid, seed, params.q_target)
    try:
        density, info = _solve_operator(generator, method, step,
                                        backend or params.backend, guess,
                                        tol, max_iterations)
    except ConvergenceError:
        if monitor is not None:
            # Under strict this aborts with the typed ResidualHealthError;
            # otherwise it records the failure and the original
            # ConvergenceError follows (so existing retry logic still works).
            monitor.check_residual(float("inf"), tol,
                                   label=f"stationary {method} solve")
        raise
    if monitor is not None:
        monitor.check_residual(float(info["residual"]), tol,
                               label=f"stationary {method} solve")
    moments = compute_moments(density, generator.grid)
    estimate = StationaryEstimate(
        mean_queue=moments.mean_q, std_queue=moments.std_q,
        mean_growth_rate=moments.mean_v, std_growth_rate=moments.std_v,
        residual=float(info["residual"]), dt=step, method=method,
        backend=str(info["method"]), iterations=int(info["iterations"]))
    return StationaryDensity(density=density, grid=generator.grid,
                             moments=moments, estimate=estimate,
                             health=monitor.log if monitor else None)


def solve_stationary_multisource(sources: Sequence[SourceParameters],
                                 params: SystemParameters,
                                 grid_params: Optional[GridParameters] = None,
                                 **kwargs) -> MultiSourceStationary:
    """Stationary density of an N-source system via the aggregate reduction.

    Accepts the same keyword options as :func:`solve_stationary`; the
    per-source stationary mean rates follow from the equilibrium shares.
    """
    from ..multisource.fokker_planck_ms import AggregateControl
    control = AggregateControl(sources, params.q_target)
    stationary = solve_stationary(params, control=control,
                                  grid_params=grid_params, **kwargs)
    names = [source.name or f"source-{index}"
             for index, source in enumerate(sources)]
    return MultiSourceStationary(stationary=stationary,
                                 shares=control.shares,
                                 source_names=names, mu=params.mu)


def compare_with_marching(stationary: StationaryDensity,
                          params: SystemParameters,
                          control: Optional[RateControl] = None,
                          grid_params: Optional[GridParameters] = None,
                          *,
                          t_end: float = 400.0,
                          delay: float = 0.0,
                          q0: Optional[float] = None,
                          rate0: Optional[float] = None) -> dict:
    """Cross-check a stationary solve against the time-marched tail.

    Marches the same configuration to *t_end* with the stationary solve's
    own ``dt`` (so both discretisations share the identical substep) and
    returns the relative moment differences alongside both moment sets.
    Pass the same *delay* given to :func:`solve_stationary` so the march
    uses the identical effective drift field.
    """
    from ..core.solver import FokkerPlanckSolver
    if control is None:
        from ..control.jrj import jrj_from_parameters
        control = jrj_from_parameters(params)
    if delay > 0.0:
        control = DelayShiftedControl(control, delay, params.mu)
    solver = FokkerPlanckSolver(params, control, grid_params=grid_params)
    dt = stationary.estimate.dt
    time_params = TimeParameters(t_end=t_end, dt=dt,
                                 snapshot_every=max(1, int(round(t_end / dt))))
    start_q = params.q_target if q0 is None else q0
    start_rate = params.mu if rate0 is None else rate0
    result = solver.solve_from_point(start_q, start_rate, time_params)
    marched = result.final_density / solver.grid.total_mass(
        result.final_density)
    marched_moments = compute_moments(marched, solver.grid)

    def _relative(got: float, want: float) -> float:
        return abs(got - want) / max(abs(want), 1e-30)

    moments = stationary.moments
    return {
        "relative": {
            "mean_queue": _relative(moments.mean_q, marched_moments.mean_q),
            "var_queue": _relative(moments.var_q, marched_moments.var_q),
            "mean_growth_rate": _relative(moments.mean_v,
                                          marched_moments.mean_v),
            "var_growth_rate": _relative(moments.var_v,
                                         marched_moments.var_v),
        },
        "stationary": moments,
        "marched": marched_moments,
        "t_end": t_end,
        "dt": dt,
    }
