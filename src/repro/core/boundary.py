"""Boundary-condition policy for the Fokker-Planck phase grid.

The paper's model has one hard physical boundary -- the queue length cannot
be negative -- expressed through the convention ``ν(t) = 0`` whenever
``Q(t) = 0`` and ``λ(t) < μ``.  On the discretised phase plane this becomes a
reflecting boundary at ``q = 0``.  The remaining three edges of the grid are
artificial truncations of an unbounded domain; for them the solver can
either reflect (conserving mass exactly, the default) or absorb (useful when
one wants the mass leaving through ``q = q_max`` to be interpreted as a
buffer-overflow probability).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import GridError
from ..numerics.grids import PhaseGrid2D

__all__ = ["BoundaryConditions"]


@dataclass(frozen=True)
class BoundaryConditions:
    """Selects how each edge of the phase grid treats outgoing mass.

    Attributes
    ----------
    reflect_q_zero:
        Reflect mass at ``q = 0`` (the physical boundary; should normally
        stay ``True``).
    absorb_q_max:
        When ``True``, mass advected past ``q = q_max`` is removed from the
        system and accumulated in :attr:`FokkerPlanckSolver.absorbed_mass`,
        modelling a finite buffer of that size.  When ``False`` the edge is
        reflecting.
    """

    reflect_q_zero: bool = True
    absorb_q_max: bool = False

    def check_grid_covers(self, q_max: float, q_target: float) -> None:
        """Reject a reflecting ``q_max`` at or below the operating point.

        With ``q_target >= q_max`` the density piles against that edge: a
        march drains it out through the q-advection outflow, which
        ``absorbed_mass`` does not count, and a stationary solve has no
        normalisable density to converge to.  An absorbing edge models a
        finite buffer and is accepted.
        """
        if q_max <= q_target and not self.absorb_q_max:
            raise GridError(
                f"grid q_max={q_max:g} does not exceed q_target={q_target:g}; "
                f"widen the grid, or for a marching solve set "
                f"BoundaryConditions(absorb_q_max=True) for a finite buffer")

    def apply_post_step(self, density: np.ndarray, grid: PhaseGrid2D,
                        inplace: bool = False) -> tuple[np.ndarray, float]:
        """Post-process *density* after a full time step.

        Returns the (possibly modified) density and the amount of
        probability mass absorbed during this step (zero unless
        ``absorb_q_max`` is set, in which case the mass sitting in the last
        queue cell with positive growth rate is removed, approximating
        packets lost to a full buffer).

        When *inplace* is true the absorption zeroes the caller's array
        directly instead of copying first -- the Fokker-Planck solver owns
        its density buffer and uses this to keep the hot loop allocation
        free.
        """
        absorbed = 0.0
        if self.absorb_q_max:
            positive_growth = grid.v_centers > 0.0
            cell_mass = density[-1, positive_growth] * grid.cell_area
            absorbed = float(np.sum(cell_mass))
            if not inplace:
                density = density.copy()
            density[-1, positive_growth] = 0.0
        return density, absorbed
