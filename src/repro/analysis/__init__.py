"""Post-processing analyses shared by the tests, examples and benchmarks.

The modules here turn raw trajectories (from the characteristic / DDE /
fluid / packet-level / Fokker-Planck substrates) into the quantities the
paper's claims are stated about: convergence and settling time, oscillation
amplitude and period, fairness indices and share tables, and plain-text
report tables that the benchmark harness prints.
"""

from .. import _lazy

_EXPORTS = {
    "render_phase_portrait": ".phase_portrait",
    "render_trajectory_portrait": ".phase_portrait",
    "render_batch_portrait": ".phase_portrait",
    "ConvergenceReport": ".convergence",
    "assess_convergence": ".convergence",
    "settling_time": ".convergence",
    "OscillationMetrics": ".oscillations",
    "OscillationMetricsBatch": ".oscillations",
    "oscillation_metrics": ".oscillations",
    "oscillation_metrics_batch": ".oscillations",
    "ShareTable": ".fairness",
    "share_table": ".fairness",
    "overshoot": ".metrics",
    "time_to_first_peak": ".metrics",
    "mean_absolute_error": ".metrics",
    "root_mean_square_error": ".metrics",
    "format_table": ".report",
    "format_series": ".report",
    "format_key_values": ".report",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
