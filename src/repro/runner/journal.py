"""Crash-safe append-only campaign journal for checkpoint/resume.

A :class:`RunJournal` records each job outcome as one self-contained JSON
line the moment it completes, so a campaign killed at any instant --
``kill -9``, power loss, a broken pool the retries could not absorb --
leaves behind an exact account of what finished.  Re-running with
``run_jobs(..., journal=...)`` (or ``repro run --resume``) replays that
account and skips every journaled success, continuing where the dead
campaign left off.

Design points:

* **Append-only, atomic records.**  Each record is a single
  newline-terminated line, flushed and ``fsync``'d before the append
  returns, so at most the final line can ever be damaged.
* **Truncated-tail recovery.**  Replay scans the journal line by line
  and ignores a partial or malformed trailing line (the signature of a
  crash mid append), so a torn tail never poisons the resume.  Replay
  only reads; the first append truncates the file back to the last
  intact record, so a writer heals the journal and a reader (``repro
  health`` on a live campaign's journal) never changes it.
* **Order-insensitive replay.**  Replay folds records into a key-indexed
  map in which any success for a key wins over any failure for the same
  key.  Because the runner's jobs are deterministic, all successes for a
  key carry bit-identical values, so replay is invariant under arbitrary
  permutation of the journal's lines -- pinned by a property test.
* **Bit-exact values.**  Values are stored with the cache's codec
  (:func:`repro.runner.cache.encode_value`: JSON with ndarrays embedded
  as base64 raw bytes, and a pickle+base64 fallback for arbitrary
  objects), so a value served from the journal is bit-identical to the
  freshly computed one.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional

from ..exceptions import ConfigurationError
from .cache import decode_value, encode_value

__all__ = ["RunJournal", "JournalRecord"]

#: Bump when the record format changes; mismatched journals refuse replay.
_FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# The journal.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JournalRecord:
    """One replayed outcome: the key, success flag and decoded value."""

    key: str
    label: str
    ok: bool
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    duration: float = 0.0


class RunJournal:
    """Append-only, fsync'd, self-healing record of a campaign's outcomes.

    Parameters
    ----------
    path:
        Journal file location (created, with parents, on first append).
        Every record is ``fsync``'d before the append returns.
    """

    def __init__(self, path: os.PathLike):
        self.path = Path(path).expanduser()
        self._handle = None
        self._replayed: Optional[Dict[str, JournalRecord]] = None
        self._torn_at: Optional[int] = None  # intact length of a torn file

    # -- replay ------------------------------------------------------------

    def replay(self) -> Dict[str, JournalRecord]:
        """Fold the journal into a ``key -> record`` map (success wins).

        Scans the file line by line, ignoring a damaged tail, and caches
        the result; the file is never modified.  The cached map is updated
        incrementally by :meth:`record`, so replay-then-append round trips
        stay consistent.
        """
        if self._replayed is None:
            self._replayed = {}
            self._scan()
        return dict(self._replayed)

    def successes(self) -> Dict[str, JournalRecord]:
        """Only the journaled successes (the jobs resume can skip)."""
        return {key: record for key, record in self.replay().items()
                if record.ok}

    def _fold(self, record: JournalRecord) -> None:
        existing = self._replayed.get(record.key)
        if existing is None or (record.ok and not existing.ok):
            self._replayed[record.key] = record

    def _scan(self) -> None:
        """Fold the intact records; remember where a damaged tail starts."""
        if not self.path.is_file():
            return
        good_end = 0
        with open(self.path, "rb") as handle:
            for line in handle:
                if not line.endswith(b"\n"):
                    break  # partial final line: crash mid-append
                try:
                    payload = json.loads(line.decode("utf-8"))
                    record = self._record_from(payload)
                except (ValueError, KeyError, TypeError):
                    break  # malformed record: treat it and the rest as torn
                good_end += len(line)
                if record is not None:
                    self._fold(record)
        if good_end < self.path.stat().st_size:
            self._torn_at = good_end

    def _record_from(self, payload: Dict[str, Any]) \
            -> Optional[JournalRecord]:
        kind = payload.get("type")
        if kind == "journal":
            if payload.get("format") != _FORMAT_VERSION:
                raise ConfigurationError(
                    f"journal {self.path} uses format "
                    f"{payload.get('format')!r}, expected {_FORMAT_VERSION}")
            return None
        if kind != "outcome":
            raise ValueError(f"unknown journal record type {kind!r}")
        ok = bool(payload["ok"])
        return JournalRecord(
            key=payload["key"],
            label=str(payload.get("label", "")),
            ok=ok,
            value=decode_value(payload["value"]) if ok else None,
            error=payload.get("error"),
            attempts=int(payload.get("attempts", 1)),
            duration=float(payload.get("duration", 0.0)))

    # -- append ------------------------------------------------------------

    def _open(self):
        if self._handle is None:
            if self._replayed is None:
                self.replay()
            if self._torn_at is not None:
                # Heal the damaged tail before appending after it.
                with open(self.path, "rb+") as handle:
                    handle.truncate(self._torn_at)
                self._torn_at = None
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists()
            self._handle = open(self.path, "a", encoding="utf-8")
            if fresh or self._handle.tell() == 0:
                self._append({"type": "journal", "format": _FORMAT_VERSION})
        return self._handle

    def _append(self, payload: Dict[str, Any]) -> None:
        handle = self._handle
        handle.write(json.dumps(payload, separators=(",", ":"),
                                default=str) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def record(self, outcome) -> None:
        """Append one finished :class:`~repro.runner.JobOutcome`."""
        payload: Dict[str, Any] = {
            "type": "outcome",
            "key": outcome.key,
            "label": outcome.spec.label,
            "ok": outcome.ok,
            "attempts": int(getattr(outcome, "attempts", 1)),
            "duration": float(outcome.duration),
        }
        if outcome.ok:
            payload["value"] = encode_value(outcome.value)
        else:
            payload["error"] = outcome.error
        self._open()
        self._append(payload)
        self._fold(JournalRecord(
            key=outcome.key, label=outcome.spec.label, ok=outcome.ok,
            value=outcome.value if outcome.ok else None,
            error=outcome.error,
            attempts=int(getattr(outcome, "attempts", 1)),
            duration=float(outcome.duration)))

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def clear(self) -> None:
        """Delete the journal file (a fresh, non-resumed campaign)."""
        self.close()
        self._replayed = None
        self._torn_at = None
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self.replay())

    def __repr__(self) -> str:
        return f"RunJournal({str(self.path)!r})"
