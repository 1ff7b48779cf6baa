"""Rate-control and window-control algorithm library.

The paper analyses a *generic* rate-control law ``dλ/dt = g(q, λ)``
(Equation 4) and instantiates it with the Jacobson / Ramakrishnan-Jain
rate analogue (Equation 2): linear increase while the queue is below the
target ``q̂`` and exponential decrease above it.  This subpackage provides

* :class:`RateControl` -- the abstract interface every control law follows,
* the concrete laws used in the paper's discussion (JRJ
  linear-increase/exponential-decrease, linear/linear, multiplicative
  variants),
* window-based algorithms (Jacobson's TCP congestion avoidance and the
  Ramakrishnan-Jain DECbit scheme) used by the packet-level simulator, and
* a small registry so scenarios and benchmarks can look laws up by name.
"""

from .. import _lazy

_EXPORTS = {
    "RateControl": ".base",
    "WindowControl": ".base",
    "JRJControl": ".jrj",
    "jrj_from_parameters": ".jrj",
    "LinearIncreaseLinearDecrease": ".linear",
    "AdditiveIncreaseAdditiveDecrease": ".linear",
    "MultiplicativeIncreaseMultiplicativeDecrease": ".multiplicative",
    "LinearIncreaseMultiplicativeStepDecrease": ".multiplicative",
    "JacobsonWindow": ".window",
    "DECbitWindow": ".window",
    "register_control": ".registry",
    "create_control": ".registry",
    "available_controls": ".registry",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
