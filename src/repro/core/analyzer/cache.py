"""Content-hashed memoization for the analyzer's expensive stages.

The offline pipeline is a pure function of its inputs: profile records
→ feature matrix → PCA reduction → clustering sweeps. Each stage's
inputs therefore make a sound cache key — a SHA-256 over the exact
bytes of the feature matrix (dtype, shape, contents) plus the stage's
parameters — and completed stages can be skipped on repetition:
``tpupoint recover`` after ``analyze``, repeated ``analyze``
invocations over the same saved records, or a sweep re-entered with a
different downstream choice.

Two tiers:

* an in-process dict (always on) — repeated sweeps inside one
  process, e.g. ``choose_k`` followed by ``kmeans_phases``;
* an optional on-disk tier (``AnalysisCache(directory=...)``,
  ``tpupoint analyze --cache-dir``) — ``.npz`` for arrays, ``.json``
  for sweep tables, so separate CLI invocations skip completed stages.

Keys are content hashes, so a changed record set, seed, worker count
(irrelevant — results are worker-count-invariant), PCA cap, or sweep
range simply misses. Hits/misses/stores are observable as
``repro_analyzer_cache_events_total``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import obs
from repro.core.analyzer.distance import KERNEL_VERSION
from repro.core.profiler.codec import CODEC_VERSION
from repro.core.profiler.serialize import SCHEMA_VERSION
from repro.errors import CacheError

_CACHE_EVENTS = obs.counter(
    "repro_analyzer_cache_events_total",
    "Analysis memo-cache lookups and stores, by event.",
    labels=("event",),
)

_KEY_BYTES = 16  # 128 hex-truncated bits: ample for a content-addressed store


def matrix_key(matrix: np.ndarray, stage: str, **params) -> str:
    """A content hash of one stage's exact inputs.

    Hashes the array's dtype, shape, and raw bytes plus a canonical
    rendering of the stage name and parameters. Any input change —
    including dtype or layout-invisible value changes — yields a new key.
    The record schema, codec and kernel versions are folded in as a salt,
    so entries written before a format or kernel change can never be served
    after one: a version bump invalidates the whole store by construction.
    """
    digest = hashlib.sha256()
    salt = f"schema={SCHEMA_VERSION};codec={CODEC_VERSION};kernel={KERNEL_VERSION};"
    digest.update(salt.encode("utf-8"))
    digest.update(stage.encode("utf-8"))
    digest.update(str(matrix.dtype).encode("utf-8"))
    digest.update(repr(matrix.shape).encode("utf-8"))
    digest.update(np.ascontiguousarray(matrix).tobytes())
    digest.update(
        json.dumps(params, sort_keys=True, default=repr).encode("utf-8")
    )
    return digest.hexdigest()[: _KEY_BYTES * 2]


class AnalysisCache:
    """Memoized stage results, in memory and optionally on disk."""

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory is not None else None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._memory: dict[str, object] = {}
        self.hits = 0
        self.misses = 0

    # --- bookkeeping -------------------------------------------------------

    def _record(self, event: str) -> None:
        if event == "hit":
            self.hits += 1
        elif event == "miss":
            self.misses += 1
        _CACHE_EVENTS.labels(event=event).inc()

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: str, suffix: str) -> Path:
        assert self.directory is not None
        return self.directory / f"{key}{suffix}"

    # --- arrays (PCA reductions, label vectors) ----------------------------

    def get_array(self, key: str) -> np.ndarray | None:
        """Cached array for ``key``, or None on a miss."""
        cached = self._memory.get(key)
        if cached is not None:
            self._record("hit")
            return cached
        if self.directory is not None:
            path = self._path(key, ".npz")
            if path.exists():
                try:
                    with np.load(path) as archive:
                        value = archive["value"]
                except (OSError, KeyError, ValueError) as error:
                    raise CacheError(f"unreadable cache entry {path}: {error}") from error
                self._memory[key] = value
                self._record("hit")
                return value
        self._record("miss")
        return None

    def put_array(self, key: str, value: np.ndarray) -> np.ndarray:
        """Store an array under ``key`` (memory + optional disk)."""
        self._memory[key] = value
        if self.directory is not None:
            np.savez_compressed(self._path(key, ".npz"), value=value)
        self._record("store")
        return value

    # --- JSON tables (sweep series) ----------------------------------------

    def get_table(self, key: str) -> dict | None:
        """Cached JSON-able table for ``key``, or None on a miss."""
        cached = self._memory.get(key)
        if cached is not None:
            self._record("hit")
            return cached
        if self.directory is not None:
            path = self._path(key, ".json")
            if path.exists():
                try:
                    value = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError) as error:
                    raise CacheError(f"unreadable cache entry {path}: {error}") from error
                self._memory[key] = value
                self._record("hit")
                return value
        self._record("miss")
        return None

    def put_table(self, key: str, value: dict) -> dict:
        """Store a JSON-able table under ``key`` (memory + optional disk)."""
        self._memory[key] = value
        if self.directory is not None:
            self._path(key, ".json").write_text(
                json.dumps(value, sort_keys=True) + "\n", encoding="utf-8"
            )
        self._record("store")
        return value
