"""Span recorder for the traced benchmark run.

The recorder wraps public entry points of each ``repro`` layer from the
benchmark's own files (nothing under ``src/repro`` changes).  A span is
``[name, start, end, parent, phase]``: spans are kept in memory and turned
into per-layer metrics when the run ends.  A layer's self time is its
span's duration minus the part of that interval its child spans cover.

Wrappers stay installed for the whole traced run and check
``recorder.enabled`` on every call, so objects built while tracing is off
(cached factorizations, for instance) are still traced once it is on.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

perf_counter = time.perf_counter


class SpanRecorder:
    """In-memory spans plus exact counters, for one process."""

    def __init__(self):
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.enabled = False
        self.phase = "setup"
        self._stack: List[int] = []

    def wrap(self, name: str, function: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        """*function* recording a span named *name* while enabled.

        ``on_result(recorder, result)`` runs after each traced call, for
        counters read off the return value.
        """
        recorder = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not recorder.enabled:
                return function(*args, **kwargs)
            stack = recorder._stack
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1,
                    recorder.phase]
            stack.append(len(recorder.spans))
            recorder.spans.append(span)
            try:
                result = function(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(recorder, result)
            return result

        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


def covered_length(intervals: Sequence[Tuple[float, float]],
                   lower: float, upper: float) -> float:
    """Length of ``[lower, upper]`` covered by the union of *intervals*."""
    clipped = sorted((max(start, lower), min(end, upper))
                     for start, end in intervals)
    total = 0.0
    current_start = current_end = None
    for start, end in clipped:
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Self time of every span: duration minus the time children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    return [(span[2] - span[1])
            - covered_length(children.get(index, ()), span[1], span[2])
            for index, span in enumerate(spans)]


def summarize(spans: Sequence[Sequence], phase: Optional[str] = None
              ) -> Dict[str, Dict[str, float]]:
    """Per span name: ``calls``, ``total_s`` and ``self_s`` (one phase)."""
    table: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans), strict=True):
        if phase is not None and span[4] != phase:
            continue
        row = table[span[0]]
        row["calls"] += 1
        row["total_s"] += span[2] - span[1]
        row["self_s"] += own
    return dict(table)


class _TracedFactorization:
    """A backend factorization whose ``solve`` records a span."""

    def __init__(self, inner, recorder: SpanRecorder):
        self._inner = inner
        self.solve = recorder.wrap("numerics.factor_solve", inner.solve)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _count_iterations(recorder: SpanRecorder, result) -> None:
    recorder.count("numerics.stationary_null_vector.iterations",
                   result[1]["iterations"])


def _count_cache_get(recorder: SpanRecorder, result) -> None:
    recorder.count("runner.cache.hits" if result[0] else "runner.cache.misses")


def _count_jobs(recorder: SpanRecorder, result) -> None:
    recorder.count("runner.jobs.attempted", result.computed)
    recorder.count("runner.jobs.failed", len(result.failures))
    recorder.count("runner.jobs.retried", result.retried)


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap the layers' public entry points; returns a function undoing it."""
    import repro.cli
    import repro.design
    import repro.design.stationary
    import repro.runner.executor
    from repro.core import solver as core_solver
    from repro.core.advection import UpwindAdvection
    from repro.core.diffusion import CrankNicolsonDiffusion
    from repro.core.generator import DiscreteGenerator
    from repro.core.stepper import ADIStepper, AxisSplitStepper
    from repro.health import HealthMonitor
    from repro.numerics.backend import NumpyBackend, ScipyBackend
    from repro.queueing import simulator as queueing_simulator
    from repro.runner.cache import ResultCache
    from repro.runner.journal import RunJournal
    from repro.runner.spec import JobSpec

    originals: List[Tuple[object, str, object]] = []

    # Every target is defined directly on its class or module, so restoring
    # the saved ``vars()`` entry undoes the patch exactly.
    def patch(owner, attribute: str, replacement) -> None:
        originals.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)

    def function(owner, attribute: str, name: str, on_result=None) -> None:
        patch(owner, attribute,
              recorder.wrap(name, vars(owner)[attribute], on_result))

    def prop(owner, attribute: str, name: str) -> None:
        patch(owner, attribute,
              property(recorder.wrap(name, vars(owner)[attribute].fget)))

    def factorizer(owner) -> None:
        original = vars(owner)["factorize_sparse"]

        def factorize(*args, **kwargs):
            return _TracedFactorization(original(*args, **kwargs), recorder)

        patch(owner, "factorize_sparse",
              recorder.wrap("numerics.factorize_sparse", factorize))

    # core / numerics / health / design: the FP paths.
    function(core_solver.FokkerPlanckSolver, "__init__", "core.solver.init")
    function(core_solver.FokkerPlanckSolver, "solve", "core.solver.solve")
    function(AxisSplitStepper, "advance", "core.axis.advance")
    function(UpwindAdvection, "advect_q", "core.advection.advect_q")
    function(UpwindAdvection, "advect_v", "core.advection.advect_v")
    function(CrankNicolsonDiffusion, "step", "core.diffusion.step")
    function(ADIStepper, "advance", "core.adi.advance")
    factorizer(NumpyBackend)
    factorizer(ScipyBackend)
    function(core_solver, "compute_moments", "core.moments")
    function(repro.design.stationary, "compute_moments", "core.moments")
    function(HealthMonitor, "check_fp_density", "health.check_fp_density")
    function(HealthMonitor, "check_fp_half_step", "health.check_fp_half_step")
    function(repro.design.stationary, "assemble_generator",
             "core.generator.assemble")
    function(DiscreteGenerator, "generator", "core.generator.assemble")
    for backend in (NumpyBackend, ScipyBackend):
        function(backend, "stationary_null_vector",
                 "numerics.stationary_null_vector", _count_iterations)
    function(repro.design, "solve_stationary", "design.solve_stationary")

    # queueing / dataplane: the packet DES.
    function(queueing_simulator.Simulator, "__init__",
             "queueing.simulator.build")
    function(queueing_simulator.Simulator, "run", "queueing.simulator.run")
    prop(queueing_simulator.SimulationResult, "mean_queue",
         "dataplane.summary")
    function(queueing_simulator.SimulationResult, "utilization",
             "dataplane.summary")
    function(queueing_simulator.SimulationResult, "fairness_index",
             "dataplane.summary")

    # runner: the campaign parent process.
    prop(JobSpec, "key", "runner.spec.key")
    function(ResultCache, "get", "runner.cache.get", _count_cache_get)
    function(ResultCache, "put", "runner.cache.put")
    function(RunJournal, "record", "runner.journal.record")
    function(repro.runner.executor, "wait", "runner.run_jobs.wait")
    function(repro.cli, "run_jobs", "runner.run_jobs", _count_jobs)

    def undo() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
        originals.clear()

    return undo
