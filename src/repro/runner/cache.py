"""Content-addressed on-disk result cache and the runner's value codec.

Layout (under ``~/.cache/repro`` by default, overridable with the
``REPRO_CACHE_DIR`` environment variable or an explicit ``--cache-dir``)::

    <root>/objects/<key[:2]>/<key>.json

One JSON file per entry holds the metadata (format, key, creation time,
label, function, seed, duration) and the value, encoded by
:func:`encode_value` -- the same codec the campaign journal writes, so a
job value has one on-disk form wherever it is persisted.

``<key>`` is the SHA-256 content hash of the job fingerprint
(:meth:`repro.runner.JobSpec.key`), so a cache entry is valid for exactly
one logical computation.  Writes are crash-safe: the entry is written to
a temporary file in the same directory, ``fsync``'d, then published with
one atomic ``os.replace`` (two processes storing the same key simply
replace each other's identical bytes).  Reads are defensive: any
malformed entry -- truncated JSON, wrong format or key, undecodable
payload -- is treated as a miss and moved to a ``corrupt/`` quarantine
(inspectable via ``repro cache info``), so a corrupted cache degrades to
recomputation rather than to an error while preserving the evidence.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

__all__ = ["ResultCache", "default_cache_dir", "CacheEntryInfo",
           "encode_value", "decode_value"]

#: Bump when the entry format changes; mismatched entries read as misses.
_FORMAT_VERSION = 2


def default_cache_dir() -> Path:
    """The default cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


# ---------------------------------------------------------------------------
# Value codec: JSON with base64-embedded arrays, pickle fallback.
# ---------------------------------------------------------------------------

class _Unencodable(Exception):
    """Internal: the value cannot use the JSON encoding."""


def _encode_array(array: np.ndarray) -> Dict[str, Any]:
    if array.dtype.hasobject or np.dtype(array.dtype.str) != array.dtype:
        # Objects have no raw bytes, and a structured dtype's ``str`` is a
        # bare ``|V<n>`` that would lose its fields: both pickle.
        raise _Unencodable(f"dtype {array.dtype}")
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": base64.b64encode(array.tobytes()).decode("ascii"),  # C order
    }


def _decode_array(payload: Dict[str, Any]) -> np.ndarray:
    raw = base64.b64decode(payload["data"])
    return np.frombuffer(raw, dtype=np.dtype(payload["dtype"])) \
        .reshape(payload["shape"]).copy()


def _encode_jsonable(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    """Encode *value* for JSON storage, spilling ndarrays into *arrays*."""
    if isinstance(value, np.ndarray):
        token = f"a{len(arrays)}"
        arrays[token] = value
        return {"__ndarray__": token}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, dict):
        if not all(isinstance(key, str) for key in value):
            raise _Unencodable("non-string dictionary key")
        if "__ndarray__" in value or "__tuple__" in value:
            # The user's keys collide with the codec's sentinels; pickling
            # the whole result is lossless, mis-decoding it would not be.
            raise _Unencodable("dictionary key collides with codec sentinel")
        return {key: _encode_jsonable(item, arrays)
                for key, item in value.items()}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode_jsonable(item, arrays)
                              for item in value]}
    if isinstance(value, list):
        return [_encode_jsonable(item, arrays) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise _Unencodable(f"type {type(value).__name__}")


def _decode_jsonable(value: Any, arrays: Dict[str, np.ndarray]) -> Any:
    if isinstance(value, dict):
        if set(value) == {"__ndarray__"}:
            return arrays[value["__ndarray__"]]
        if set(value) == {"__tuple__"}:
            return tuple(_decode_jsonable(item, arrays)
                         for item in value["__tuple__"])
        return {key: _decode_jsonable(item, arrays)
                for key, item in value.items()}
    if isinstance(value, list):
        return [_decode_jsonable(item, arrays) for item in value]
    return value


def encode_value(value: Any) -> Dict[str, Any]:
    """Encode *value* into a JSON-able ``{"encoding": ..., ...}`` payload."""
    arrays: Dict[str, np.ndarray] = {}
    try:
        jsonable = _encode_jsonable(value, arrays)
        encoded_arrays = {token: _encode_array(array)
                          for token, array in arrays.items()}
    except _Unencodable:
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        return {"encoding": "pickle",
                "data": base64.b64encode(blob).decode("ascii")}
    return {"encoding": "json", "json": jsonable, "arrays": encoded_arrays}


def decode_value(payload: Dict[str, Any]) -> Any:
    """Invert :func:`encode_value`, bit-identically."""
    encoding = payload.get("encoding")
    if encoding == "pickle":
        return pickle.loads(base64.b64decode(payload["data"]))
    if encoding == "json":
        arrays = {token: _decode_array(spec)
                  for token, spec in payload.get("arrays", {}).items()}
        return _decode_jsonable(payload.get("json"), arrays)
    raise ValueError(f"unknown value encoding {encoding!r}")


# ---------------------------------------------------------------------------
# The cache.
# ---------------------------------------------------------------------------

def _fsync_dir(path: Path) -> None:
    """Best-effort fsync of a directory (persists renames within it)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _discard(path: Path) -> None:
    """Delete a file, or a directory tree (a format-1 entry)."""
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


def _read_entry(path: Path) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class CacheEntryInfo:
    """Metadata summary of one cache entry (for ``repro cache list``)."""

    key: str
    label: str
    function: str
    encoding: str
    created: float
    size_bytes: int


class ResultCache:
    """Content-addressed result store keyed by job fingerprint hashes."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root).expanduser() if root is not None \
            else default_cache_dir()
        self._objects = self.root / "objects"

    def _entry_path(self, key: str) -> Path:
        return self._objects / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self._entry_path(key).is_file()

    # -- write -------------------------------------------------------------

    def put(self, key: str, value: Any,
            meta: Optional[Dict[str, Any]] = None) -> None:
        """Store *value* under *key*, atomically replacing any entry."""
        path = self._entry_path(key)
        entry = {"format": _FORMAT_VERSION, "key": key,
                 "created": time.time()}
        entry.update(meta or {})
        entry["value"] = encode_value(value)
        path.parent.mkdir(parents=True, exist_ok=True)
        # A private temporary name per writer: concurrent puts of one key
        # never share a file, and the last rename simply wins.
        temp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
        try:
            with open(temp, "x", encoding="utf-8") as handle:
                json.dump(entry, handle, default=str)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        except BaseException:
            temp.unlink(missing_ok=True)
            raise
        # A crash after the rename must not lose the rename itself.
        _fsync_dir(path.parent)

    # -- read --------------------------------------------------------------

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; malformed entries are quarantined as misses."""
        path = self._entry_path(key)
        if not path.is_file():
            return False, None
        try:
            entry = _read_entry(path)
            if entry.get("format") != _FORMAT_VERSION \
                    or entry.get("key") != key:
                raise ValueError("cache entry format or key mismatch")
            return True, decode_value(entry["value"])
        except Exception:
            # Corrupted or unreadable entry: quarantine it and report a
            # miss, so the caller recomputes instead of failing and the
            # damaged bytes stay inspectable under ``corrupt/``.
            self._quarantine(path)
            return False, None

    # -- quarantine --------------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupted entries are parked (``<root>/corrupt``)."""
        return self.root / "corrupt"

    def _quarantine(self, path: Path) -> None:
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, self.quarantine_dir / path.name)
        except OSError:
            # Quarantine is best-effort; never let it block the miss path.
            path.unlink(missing_ok=True)

    def quarantined_count(self) -> int:
        """Number of corrupted entries parked under ``corrupt/``."""
        if not self.quarantine_dir.is_dir():
            return 0
        return sum(1 for _ in self.quarantine_dir.iterdir())

    def clear_quarantine(self) -> int:
        """Delete the quarantined entries; returns how many were removed."""
        removed = 0
        if self.quarantine_dir.is_dir():
            for child in list(self.quarantine_dir.iterdir()):
                _discard(child)
                removed += 1
        return removed

    # -- maintenance -------------------------------------------------------

    def _iter_entries(self) -> Iterator[Path]:
        """Every entry file, plus any unreadable format-1 entry directory.

        Temporary files of in-flight writes are skipped.
        """
        if not self._objects.is_dir():
            return
        for shard in sorted(self._objects.iterdir()):
            if shard.is_dir():
                for path in sorted(shard.iterdir()):
                    if path.suffix != ".tmp":
                        yield path

    def entries(self) -> List[CacheEntryInfo]:
        """Metadata for every readable entry (unreadable ones are skipped)."""
        found = []
        for path in self._iter_entries():
            try:
                entry = _read_entry(path)
                found.append(CacheEntryInfo(
                    key=entry.get("key", path.stem),
                    label=str(entry.get("label", "")),
                    function=str(entry.get("function", "")),
                    encoding=str(entry["value"].get("encoding", "")),
                    created=float(entry.get("created", 0.0)),
                    size_bytes=path.stat().st_size))
            except Exception:
                continue
        return found

    def __len__(self) -> int:
        return sum(1 for _ in self._iter_entries())

    def size_bytes(self) -> int:
        """Total size of all cache entries in bytes."""
        return sum(path.stat().st_size for path in self._iter_entries()
                   if path.is_file())

    def clear(self) -> int:
        """Delete every entry (quarantine included); returns the count."""
        removed = 0
        for path in list(self._iter_entries()):
            _discard(path)
            removed += 1
        return removed + self.clear_quarantine()

    def prune(self, older_than_seconds: float, *,
              now: Optional[float] = None) -> int:
        """Delete entries created more than *older_than_seconds* ago.

        Entries whose metadata is unreadable are pruned as well -- they
        would read as misses anyway.  Returns the number of entries
        removed.  *now* overrides the current time (for tests).
        """
        cutoff = (time.time() if now is None else float(now)) \
            - float(older_than_seconds)
        removed = 0
        for path in list(self._iter_entries()):
            try:
                created = float(_read_entry(path).get("created", 0.0))
            except Exception:
                created = float("-inf")
            if created < cutoff:
                _discard(path)
                removed += 1
        return removed
