"""Phase-keyed tuning knowledge base.

TPUPoint's phase detector already reduces a run to a handful of
repeating behaviors, each summarized by the operators that dominate it.
That summary doubles as a *key*: two runs whose critical phases execute
the same top operators are, for pipeline-tuning purposes, the same
workload — so a configuration that won the search once should seed the
search next time instead of restarting from defaults.

Entries map a **phase signature** (the top-K operator names of the
critical phase, compared with the paper's Equation 1 similarity — the
same measure OLS uses to segment phases) to the best configuration a
finished search found, together with how much it improved and how many
trials it cost. Lookups return the nearest stored signature above a
similarity threshold, or nothing — a miss means the engine starts cold
from defaults, exactly as if the knowledge base did not exist.

Persistence goes through :class:`repro.storage.JsonDocumentStore`, so a
knowledge directory can be shared between runs, between tenants of the
fleet service (``FleetService.tuning_priors``), or shipped around as a
plain JSON file. A corrupt store degrades to an empty prior set rather
than failing the run: warm starts are an optimization, never a
dependency.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro import obs
from repro.core.analyzer.ols import DEFAULT_SIMILARITY_THRESHOLD, step_similarity
from repro.errors import ConfigurationError, OptimizerError, StorageError
from repro.host.pipeline import PipelineConfig
from repro.storage import JsonDocumentStore

_DOCUMENT = "tuning_knowledge"

_KB_LOOKUPS = obs.counter(
    "repro_optimizer_kb_lookups_total",
    "Knowledge-base lookups, by outcome (hit or miss).",
    labels=("outcome",),
)
_KB_ENTRIES = obs.gauge(
    "repro_optimizer_kb_entries",
    "Entries held by the most recently opened tuning knowledge base.",
).labels()


#: Per-entry cap on retained trial observations (surrogate training data).
MAX_OBSERVATIONS = 64


@dataclass(frozen=True)
class KnowledgeEntry:
    """One remembered search result, keyed by phase signature.

    ``observations`` carries the search's raw per-trial measurements —
    ``{"config": {...}, "throughput": steps/s}`` rows, capped at
    :data:`MAX_OBSERVATIONS` — which the performance surrogate
    (:mod:`repro.core.optimizer.surrogate`) mines as training pairs.
    Entries recorded before observations existed load as empty tuples.
    """

    signature: frozenset[str]
    config: dict[str, object]
    improvement: float
    trials: int
    workload: str = ""
    observations: tuple = ()

    def __post_init__(self) -> None:
        if not self.signature:
            raise OptimizerError("knowledge entry needs a non-empty phase signature")
        if self.trials <= 0:
            raise OptimizerError("knowledge entry needs a positive trial count")
        if len(self.observations) > MAX_OBSERVATIONS:
            object.__setattr__(
                self, "observations", tuple(self.observations[:MAX_OBSERVATIONS])
            )

    def pipeline_config(self) -> PipelineConfig:
        """Rebuild the stored configuration.

        Raises :class:`~repro.errors.ConfigurationError` when the stored
        knobs no longer validate (e.g. a schema change since the entry
        was written); callers treat that as a miss.
        """
        return self.apply_to(PipelineConfig())

    def apply_to(self, base: PipelineConfig) -> PipelineConfig:
        """Overlay the stored knobs onto ``base``.

        Knobs outside the stored set (e.g. jitter) keep ``base``'s
        values, so a warm start never disturbs workload-specific
        settings the search did not touch.
        """
        try:
            return base.with_updates(**self.config)
        except TypeError as error:
            raise ConfigurationError(f"stored config has unknown knobs: {error}")

    def to_document(self) -> dict:
        """Serialize for the backing JSON store."""
        return {
            "signature": sorted(self.signature),
            "config": dict(self.config),
            "improvement": self.improvement,
            "trials": self.trials,
            "workload": self.workload,
            "observations": [dict(row) for row in self.observations],
        }

    @classmethod
    def from_document(cls, document: dict) -> KnowledgeEntry:
        """Parse one stored entry; raises StorageError when malformed.

        Malformed *observation* rows are dropped individually — they
        only feed the surrogate's training set, so losing one must
        never invalidate the entry's warm-start configuration.
        """
        if not isinstance(document, dict):
            raise StorageError(f"malformed knowledge entry: not an object: {document!r}")
        try:
            observations = []
            for row in document.get("observations", []):
                try:
                    row = {"config": dict(row["config"]), "throughput": float(row["throughput"])}
                except (KeyError, TypeError, ValueError, OverflowError):
                    continue
                if math.isfinite(row["throughput"]):
                    observations.append(row)
            signature = document["signature"]
            if not isinstance(signature, list) or not all(isinstance(n, str) for n in signature):
                raise ValueError("'signature' must be a list of operator names")
            improvement = float(document["improvement"])
            if not math.isfinite(improvement):
                raise ValueError(f"non-finite improvement {improvement}")
            return cls(
                signature=frozenset(signature),
                config=dict(document["config"]),
                improvement=improvement,
                trials=int(document["trials"]),
                workload=str(document.get("workload", "")),
                observations=tuple(observations),
            )
        except (KeyError, TypeError, ValueError, OverflowError, OptimizerError) as error:
            raise StorageError(f"malformed knowledge entry: {error}")


@dataclass(frozen=True)
class KnowledgeMatch:
    """A lookup hit: the entry plus how closely its signature matched."""

    entry: KnowledgeEntry
    similarity: float

    @property
    def config(self) -> PipelineConfig:
        """The matched entry's stored configuration, rebuilt."""
        return self.entry.pipeline_config()


@dataclass
class TuningKnowledgeBase:
    """In-memory prior set with optional JSON persistence.

    :attr:`persist_error` holds the last :meth:`save` failure (e.g. a
    read-only knowledge directory), or None after a clean save.
    """

    store: JsonDocumentStore | None = None
    persist_error: str | None = None
    _entries: list[KnowledgeEntry] = field(default_factory=list)

    # --- construction -----------------------------------------------------

    @classmethod
    def open(cls, directory: str | Path) -> TuningKnowledgeBase:
        """Load (or create) the knowledge base under ``directory``.

        A corrupt document logs as an empty prior set — the warm start
        is skipped, the run proceeds cold. An uncreatable directory
        (e.g. a read-only parent) degrades to an in-memory base with
        :attr:`persist_error` set, so the search still runs; it just
        cannot persist.
        """
        try:
            store = JsonDocumentStore(directory)
        except StorageError as error:
            return cls(store=None, persist_error=str(error))
        kb = cls(store=store)
        try:
            document = store.load(_DOCUMENT)
        except StorageError:
            document = None
        entries = [] if document is None else document.get("entries", [])
        if isinstance(entries, list):  # anything else is a corrupt document
            for raw in entries:
                try:
                    kb._entries.append(KnowledgeEntry.from_document(raw))
                except StorageError:
                    continue
        _KB_ENTRIES.set(len(kb._entries))
        return kb

    # --- queries ----------------------------------------------------------

    def writable(self) -> bool:
        """Whether :meth:`save` could persist anything.

        False for in-memory bases, for directories that could not be
        created, and for read-only knowledge directories — callers
        (``tpupoint tune``) warn up front instead of discovering the
        no-persist only after a successful search.
        """
        if self.store is None:
            return False
        return os.access(self.store.directory, os.W_OK)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[KnowledgeEntry, ...]:
        """Every stored entry, in insertion order."""
        return tuple(self._entries)

    def lookup(
        self,
        signature: frozenset[str],
        threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
    ) -> KnowledgeMatch | None:
        """Nearest stored entry whose signature clears ``threshold``.

        Similarity is Equation 1 over operator-name sets; ties prefer
        the entry with the larger recorded improvement, so the most
        valuable prior wins when several phases look alike.
        """
        if not signature:
            raise OptimizerError("cannot look up an empty phase signature")
        best: KnowledgeMatch | None = None
        for entry in self._entries:
            similarity = step_similarity(signature, entry.signature)
            if similarity < threshold:
                continue
            if (
                best is None
                or similarity > best.similarity
                or (
                    similarity == best.similarity
                    and entry.improvement > best.entry.improvement
                )
            ):
                best = KnowledgeMatch(entry=entry, similarity=similarity)
        _KB_LOOKUPS.labels(outcome="hit" if best else "miss").inc()
        return best

    def nearest(self, signature: frozenset[str]) -> KnowledgeMatch | None:
        """Closest stored entry regardless of threshold; None when empty.

        The health monitor's drift detector uses this: it wants the
        *distance* to the nearest fingerprint, not a warm-start hit, so
        no threshold applies and the lookup counters stay untouched
        (a monitoring scrape must not skew the hit/miss telemetry).
        """
        if not signature:
            raise OptimizerError("cannot look up an empty phase signature")
        best: KnowledgeMatch | None = None
        for entry in self._entries:
            similarity = step_similarity(signature, entry.signature)
            if best is None or similarity > best.similarity or (
                similarity == best.similarity
                and entry.improvement > best.entry.improvement
            ):
                best = KnowledgeMatch(entry=entry, similarity=similarity)
        return best

    # --- updates ----------------------------------------------------------

    def record(self, entry: KnowledgeEntry) -> None:
        """Insert or merge one search result.

        An exact-signature duplicate keeps whichever result improved
        more — re-running a workload never degrades its prior — while
        the two entries' trial observations are pooled (deduplicated,
        capped) so the surrogate's training set only ever grows.
        """
        for index, existing in enumerate(self._entries):
            if existing.signature == entry.signature:
                winner = (
                    entry if entry.improvement > existing.improvement else existing
                )
                merged: list[dict] = []
                seen: set[str] = set()
                for row in tuple(winner.observations) + tuple(
                    existing.observations
                ) + tuple(entry.observations):
                    key = repr(sorted(row.get("config", {}).items())) + repr(
                        row.get("throughput")
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    merged.append(row)
                self._entries[index] = replace(
                    winner, observations=tuple(merged[:MAX_OBSERVATIONS])
                )
                break
        else:
            self._entries.append(entry)
        _KB_ENTRIES.set(len(self._entries))

    def save(self) -> Path | None:
        """Persist to the backing store; no-op for in-memory bases.

        A store that cannot be written — a read-only knowledge
        directory is the common case — degrades to no-persist: the
        failure is remembered in :attr:`persist_error` (so callers like
        ``tpupoint tune`` can warn loudly) and None is returned, but
        the in-memory base keeps working for the rest of the run.
        """
        if self.store is None:
            return None
        document = {
            "version": 1,
            "entries": [entry.to_document() for entry in self._entries],
        }
        try:
            path = self.store.save(_DOCUMENT, document)
        except StorageError as error:
            self.persist_error = str(error)
            return None
        self.persist_error = None
        return path
