"""Fokker-Planck machinery for the controlled queue (the paper's contribution).

The joint density ``f(t, q, ν)`` of queue length and queue growth rate obeys
Equation 14 of the paper,

    f_t + ν f_q + (g f)_ν = (σ²/2) f_qq,

with ``g(q, λ)`` the rate-control law and ``ν = λ − μ``.  The solver in
:mod:`repro.core.solver` discretises this on the phase grid of
:class:`repro.numerics.PhaseGrid2D` with operator splitting: a conservative
upwind advection step in ``q`` (velocity ``ν``), a conservative upwind
advection step in ``ν`` (velocity ``g``), and a Crank-Nicolson diffusion
step in ``q``.  Reflecting boundaries keep the probability mass at one.

The reduced (σ = 0) hyperbolic system can alternatively be solved along its
characteristics, reproducing the paper's Section 5 analysis directly
(:mod:`repro.core.reduced`).
"""

from .. import _lazy

_EXPORTS = {
    "UpwindAdvection": ".advection",
    "cfl_time_step": ".advection",
    "cfl_time_step_from_speeds": ".advection",
    "BoundaryConditions": ".boundary",
    "CrankNicolsonDiffusion": ".diffusion",
    "delta_initial_density": ".initial",
    "gaussian_initial_density": ".initial",
    "uniform_initial_density": ".initial",
    "DensityMoments": ".moments",
    "compute_moments": ".moments",
    "marginal_q": ".moments",
    "marginal_v": ".moments",
    "tail_probability": ".moments",
    "ReducedSystemSolver": ".reduced",
    "FokkerPlanckSolver": ".solver",
    "FokkerPlanckResult": ".solver",
    "DensitySnapshot": ".solver",
    "SteadyStateEstimate": ".steady_state",
    "estimate_steady_state": ".steady_state",
    "relaxation_time": ".steady_state",
    "SparseOperator": ".generator",
    "DiscreteGenerator": ".generator",
    "assemble_generator": ".generator",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
