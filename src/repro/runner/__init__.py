"""Parallel experiment orchestration with a content-addressed result cache.

This subsystem turns any experiment of the reproduction into a declarative,
picklable job and executes whole matrices of them with worker-process
parallelism, deterministic seeding and on-disk result reuse:

* :mod:`repro.runner.spec` -- :class:`JobSpec` / :class:`ExperimentSpec`,
  the *(callable, parameters, overrides, seed)* description of one
  evaluation, with a stable SHA-256 content hash;
* :mod:`repro.runner.grid` -- :func:`expand_grid` / :func:`build_matrix`,
  cartesian sweep construction with spawn-key-derived per-job seeds;
* :mod:`repro.runner.executor` -- :func:`run_jobs`, the supervised
  serial/parallel executor with failure isolation, retries with
  deterministic backoff (:class:`RetryPolicy`), per-job timeouts, pool
  respawn on worker death, and progress reporting;
* :mod:`repro.runner.cache` -- :class:`ResultCache`, the content-addressed
  store under ``~/.cache/repro`` (one fsync'd, atomically renamed JSON
  file per entry, with a ``corrupt/`` quarantine), and the value codec
  (:func:`~repro.runner.cache.encode_value`: JSON with base64 arrays,
  pickle fallback) shared with the journal;
* :mod:`repro.runner.journal` -- :class:`RunJournal`, the crash-safe
  append-only outcome journal behind checkpoint/resume
  (``run_jobs(..., journal=...)`` / ``repro run --resume``);
* :mod:`repro.runner.mapreduce` -- :class:`MapReduceSpec`, sharded
  map-reduce aggregation (``run_jobs(..., reduce=...)``): successful job
  values fold into one running state in submission order, so a campaign's
  working set is the aggregate, not every payload;
* :mod:`repro.runner.faults` -- :class:`FaultPlan`, deterministic fault
  injection (worker kills, transient raises, timeout sleeps) for testing
  every recovery path above;
* :mod:`repro.runner.experiments` -- importable job callables and the named
  matrices behind ``repro run``.

Quick start::

    from repro import SystemParameters
    from repro.runner import ResultCache, build_matrix, run_jobs
    from repro.runner.experiments import density_point

    jobs = build_matrix(density_point, SystemParameters(),
                        axes={"sigma": [0.2, 0.5], "c1": [0.1, 0.2, 0.4]},
                        fixed={"t_end": 40.0})
    result = run_jobs(jobs, n_jobs=4, cache=ResultCache())
    print(result.summary())          # e.g. "6 jobs: 0 cache hits, ..."
    for outcome in result:
        print(outcome.spec.label, outcome.value)
"""

from .. import _lazy

_EXPORTS = {
    "JobSpec": ".spec",
    "ExperimentSpec": ".spec",
    "function_reference": ".spec",
    "canonical_json": ".hashing",
    "content_hash": ".hashing",
    "expand_grid": ".grid",
    "build_matrix": ".grid",
    "run_jobs": ".executor",
    "JobOutcome": ".executor",
    "MatrixResult": ".executor",
    "MapReduceSpec": ".mapreduce",
    "RetryPolicy": ".executor",
    "outcome_status": ".executor",
    "print_progress": ".executor",
    "ResultCache": ".cache",
    "CacheEntryInfo": ".cache",
    "default_cache_dir": ".cache",
    "RunJournal": ".journal",
    "JournalRecord": ".journal",
    "FaultPlan": ".faults",
    "InjectedTransientError": ".faults",
    "corrupt_cache_entry": ".faults",
    "truncate_journal": ".faults",
}

__getattr__, __dir__ = _lazy.lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
