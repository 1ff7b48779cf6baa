"""Phase-plane (characteristics) analysis of the reduced system (Section 5).

With the diffusion term suppressed, Equation 14 is a hyperbolic PDE whose
characteristics are the curves ``dq/dt = λ − μ``, ``dλ/dt = g(q, λ)``
(Equation 16).  The paper analyses the control algorithm by studying these
curves in the ``(q, ν)`` plane: the drift directions quadrant by quadrant
(Figure 2), the convergent spiral of the JRJ law (Figure 3, Theorem 1), and
the qualitative change -- limit cycles -- introduced by delayed feedback
(Section 7).  This subpackage reproduces each of those analyses.
"""

from .. import _lazy

_EXPORTS = {
    "PoincareSection": ".poincare",
    "compute_poincare_section": ".poincare",
    "compute_poincare_sections": ".poincare",
    "CharacteristicBatch": ".trajectory",
    "CharacteristicTrajectory": ".trajectory",
    "integrate_characteristic": ".trajectory",
    "integrate_characteristic_batch": ".trajectory",
    "QuadrantDrift": ".phase_plane",
    "quadrant_drift_table": ".phase_plane",
    "drift_field": ".phase_plane",
    "Equilibrium": ".equilibrium",
    "find_equilibrium": ".equilibrium",
    "classify_equilibrium": ".equilibrium",
    "SpiralAnalysis": ".limit_cycle",
    "analyze_spiral": ".limit_cycle",
    "analyze_spiral_batch": ".limit_cycle",
    "peak_contraction_ratios": ".limit_cycle",
    "is_convergent_spiral": ".limit_cycle",
    "Theorem1Verification": ".theorem1",
    "verify_theorem1": ".theorem1",
    "verify_theorem1_batch": ".theorem1",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
