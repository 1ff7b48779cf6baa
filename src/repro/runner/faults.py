"""Deterministic fault injection for the job executor (chaos harness).

Long campaigns die in boring ways: a worker is OOM-killed, a job wedges
past its deadline, a cache entry is half-written when the machine loses
power, a journal's final record is truncated.  Each recovery path in
:mod:`repro.runner.executor` exists to absorb exactly one of those deaths
-- and each must therefore be *exercisable on demand*, reproducibly, in a
unit test.  This module provides that: a :class:`FaultPlan` of seeded
chaos hooks the executor threads into every worker-side job execution,
plus filesystem helpers that damage cache entries and journals the same
way a crash would.

Determinism is the design constraint.  A fault never depends on wall
clock, scheduling order or process identity; it is keyed purely on
``(plan seed, fault kind, job key, attempt number)``.  Running the same
plan against the same matrix therefore injects the same faults whether
the matrix executes serially, across 2 workers or across 32 -- which is
what makes the differential gate testable: *any* fault schedule plus
retries must yield values bit-identical to a fault-free serial run.

Usage::

    from repro.runner import FaultPlan, run_jobs

    plan = FaultPlan(seed=7, transient_every=4)   # ~1 in 4 jobs raises
    result = run_jobs(jobs, n_jobs=4, retries=2, faults=plan)
    assert not result.failures                    # retries absorb the chaos

The ``REPRO_FAULTS`` environment variable (JSON of the plan fields) arms
the same hooks through the CLI, which is how the CI chaos job injects
worker kills into a real ``repro run`` campaign.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

from ..exceptions import ConfigurationError, TransientJobError, WorkerCrashError
from ..health import arm_numerical_fault, reset_numerical_faults
from .spec import JobSpec

__all__ = [
    "FaultPlan",
    "InjectedTransientError",
    "FAULTS_ENV_VAR",
    "corrupt_cache_entry",
    "truncate_journal",
]

#: Environment variable carrying a JSON-encoded :class:`FaultPlan`.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Exit code used by the kill-worker hook; only meaningful in tests.
_KILL_EXIT_CODE = 87


class InjectedTransientError(TransientJobError):
    """A transient failure raised by the fault-injection harness."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    Each hook selects jobs by hashing ``(kind, seed, job key)`` -- roughly
    one job in ``every`` is hit, independent of submission or completion
    order -- and arms only while the job's 0-based attempt number is below
    the hook's ``*_attempts`` budget, so a retried job eventually runs
    clean and the differential gate (chaos + retries == fault-free serial)
    stays meaningful.

    Attributes
    ----------
    seed:
        Salt for the selection hashes; two plans with different seeds hit
        different (but equally reproducible) job subsets.
    kill_every:
        Kill the worker process (``os._exit``) before running roughly one
        job in ``kill_every`` -- the executor sees ``BrokenProcessPool``.
        In-process (serial) execution degrades to raising
        :class:`~repro.exceptions.WorkerCrashError` instead, so serial
        campaigns exercise the same classification path.
    kill_attempts:
        Number of leading attempts the kill hook stays armed for.
    transient_every / transient_attempts:
        Raise :class:`InjectedTransientError` inside the job.
    sleep_every / sleep_seconds / sleep_attempts:
        Sleep before running the job, long enough to trip the executor's
        per-job ``timeout=`` watchdog.
    nan_density_every / nan_density_attempts:
        Arm the ``nan-density`` numerical fault for the selected jobs: the
        next Fokker-Planck solve in the job poisons one density cell with
        NaN, so the finiteness monitor (and its repair/abort policies) can
        be exercised end to end.  Unlike the process-level hooks this is a
        *deterministic numerical* fault: under ``--health=strict`` it
        surfaces as a typed, non-retryable
        :class:`~repro.exceptions.NonFiniteStateError`.
    negative_queue_every / negative_queue_attempts:
        Arm the ``negative-queue`` numerical fault: the next DES run in
        the job records an impossible negative queue-length sample halfway
        through the horizon, exercising the queue-invariant monitor.
    match_labels:
        When non-empty, restrict every hook to jobs whose spec label is in
        this tuple (exact-match chaos for targeted tests).
    """

    seed: int = 0
    kill_every: Optional[int] = None
    kill_attempts: int = 1
    transient_every: Optional[int] = None
    transient_attempts: int = 1
    sleep_every: Optional[int] = None
    sleep_seconds: float = 0.0
    sleep_attempts: int = 1
    nan_density_every: Optional[int] = None
    nan_density_attempts: int = 1
    negative_queue_every: Optional[int] = None
    negative_queue_attempts: int = 1
    match_labels: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("kill_every", "transient_every", "sleep_every",
                     "nan_density_every", "negative_queue_every"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigurationError(f"FaultPlan.{name} must be >= 1")
        if not isinstance(self.match_labels, tuple):
            object.__setattr__(self, "match_labels",
                               tuple(self.match_labels))

    # -- selection ---------------------------------------------------------

    def _selects(self, kind: str, every: Optional[int],
                 spec: JobSpec) -> bool:
        if every is None:
            return False
        if self.match_labels and spec.label not in self.match_labels:
            return False
        digest = hashlib.sha256(
            f"{kind}:{self.seed}:{spec.key}".encode("utf-8")).hexdigest()
        return int(digest[:8], 16) % every == 0

    def kills(self, spec: JobSpec, attempt: int) -> bool:
        """Whether the kill hook fires for *spec* on 0-based *attempt*."""
        return attempt < self.kill_attempts \
            and self._selects("kill", self.kill_every, spec)

    def raises_transient(self, spec: JobSpec, attempt: int) -> bool:
        return attempt < self.transient_attempts \
            and self._selects("transient", self.transient_every, spec)

    def sleeps(self, spec: JobSpec, attempt: int) -> bool:
        return attempt < self.sleep_attempts \
            and self._selects("sleep", self.sleep_every, spec)

    def poisons_density(self, spec: JobSpec, attempt: int) -> bool:
        return attempt < self.nan_density_attempts \
            and self._selects("nan-density", self.nan_density_every, spec)

    def poisons_queue(self, spec: JobSpec, attempt: int) -> bool:
        return attempt < self.negative_queue_attempts \
            and self._selects("negative-queue", self.negative_queue_every,
                              spec)

    # -- the worker-side hook ----------------------------------------------

    def apply(self, spec: JobSpec, attempt: int) -> None:
        """Inject this plan's faults for *spec* on 0-based *attempt*.

        Called by the executor immediately before the job function runs,
        in whichever process executes the job.  Numerical faults are
        (re-)armed first -- the registry is cleared each time so a job
        that is *not* selected never inherits a poison left over from an
        earlier job in the same worker process.  Then sleeps (so a
        sleeping job can still be killed by the watchdog), then kills,
        then in-job transient raises.
        """
        reset_numerical_faults()
        if self.poisons_density(spec, attempt):
            arm_numerical_fault("nan-density")
        if self.poisons_queue(spec, attempt):
            arm_numerical_fault("negative-queue")
        if self.sleeps(spec, attempt) and self.sleep_seconds > 0.0:
            time.sleep(self.sleep_seconds)
        if self.kills(spec, attempt):
            if multiprocessing.parent_process() is not None:
                # A worker process: die the way SIGKILL/OOM would, without
                # running any interpreter cleanup.
                os._exit(_KILL_EXIT_CODE)
            raise WorkerCrashError(
                f"injected worker kill for job {spec.label!r} "
                f"(attempt {attempt}, in-process mode)")
        if self.raises_transient(spec, attempt):
            raise InjectedTransientError(
                f"injected transient fault for job {spec.label!r} "
                f"(attempt {attempt})")

    # -- environment plumbing ----------------------------------------------

    def to_environment(self) -> str:
        """The JSON form suitable for the ``REPRO_FAULTS`` variable."""
        payload = {name: value for name, value in asdict(self).items()
                   if value not in (None, ()) or name == "seed"}
        payload["match_labels"] = list(self.match_labels)
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_environment(cls) -> Optional["FaultPlan"]:
        """The plan armed via ``REPRO_FAULTS``, or ``None`` when unset."""
        raw = os.environ.get(FAULTS_ENV_VAR)
        if not raw:
            return None
        try:
            payload = json.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("fault plan must be a JSON object")
            payload["match_labels"] = tuple(payload.get("match_labels", ()))
            return cls(**payload)
        except (ValueError, TypeError) as error:
            raise ConfigurationError(
                f"malformed {FAULTS_ENV_VAR} value {raw!r}: {error}") \
                from error


# ---------------------------------------------------------------------------
# Filesystem damage helpers (crash simulation for tests).
# ---------------------------------------------------------------------------

def corrupt_cache_entry(cache, key: str) -> bool:
    """Overwrite cache entry *key* with garbage bytes.

    Simulates a torn write (power loss mid-write, bit rot).  Returns
    ``True`` when an entry existed and was damaged.
    """
    if key not in cache:
        return False
    cache._entry_path(key).write_bytes(b"\x00corrupt\x00")
    return True


def truncate_journal(path, drop_bytes: int = 1) -> int:
    """Chop *drop_bytes* off the end of the journal file at *path*.

    Simulates a crash mid-append: the final record becomes a partial line
    that :class:`~repro.runner.journal.RunJournal` must detect and drop on
    replay.  Returns the resulting file size.
    """
    path = os.fspath(path)
    size = max(0, os.path.getsize(path) - int(drop_bytes))
    with open(path, "rb+") as handle:
        handle.truncate(size)
    return size
