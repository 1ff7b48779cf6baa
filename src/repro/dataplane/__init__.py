"""Columnar trace storage and streaming statistics (the data plane).

This package is the memory-bounded data plane under the simulators and
campaign runner: columnar trace storage (:class:`ColumnarTrace`),
streaming accumulators with exact parallel merges
(:class:`StreamingMoments`, :class:`StreamingHistogram`,
:class:`TimeWeightedMoments`), the unified :class:`TraceSink` protocol
with its streaming implementations, and the ``retention`` policy
vocabulary threaded through ``repro run`` / ``repro ensemble`` /
``repro design``.  See ``docs/dataplane.md``.
"""

from .. import _lazy

_EXPORTS = {
    "ColumnarTrace": ".columnar",
    "StreamingMoments": ".accumulators",
    "StreamingHistogram": ".accumulators",
    "TimeWeightedMoments": ".accumulators",
    "TraceSink": ".sink",
    "NullTraceSink": ".sink",
    "MomentsTraceSink": ".sink",
    "RETENTION_POLICIES": ".retention",
    "validate_retention": ".retention",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
