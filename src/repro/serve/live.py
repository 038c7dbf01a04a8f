"""Incremental per-job analysis state.

Folds completed steps into the online linear scan as records arrive and
maintains running phase tables, operator totals, and idle/MXU aggregates
— the live counterpart of :class:`~repro.core.analyzer.analyzer.TPUPointAnalyzer`.
The OLS phase tables are per-phase accumulators that snapshot queries
read directly. The k-means phase query runs the batch analyzer, so the
job also keeps every released :class:`StepStats`: a job's live state
grows with its step count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.analyzer.analyzer import AnalysisResult
from repro.core.analyzer.distance import pairwise_distances
from repro.core.analyzer.ols import DEFAULT_SIMILARITY_THRESHOLD, OnlineLinearScan
from repro.core.analyzer.streaming import StreamingAnalyzer
from repro.core.profiler.record import (
    OperatorStats,
    OperatorTable,
    ProfileRecord,
    StepStats,
)
from repro.core.profiler.streaming import StepStream
from repro.errors import ServeError
from repro.runtime.events import DeviceKind

#: Default cutoff for :meth:`LiveJobAnalysis.similar_phase_pairs`: two
#: phases whose operator-mix vectors (unit-normalized duration shares)
#: are closer than this are reported as near-duplicates. The maximum
#: possible distance between two such vectors is sqrt(2) (disjoint
#: operator sets), so 0.25 means "mostly the same mix".
DEFAULT_PHASE_MERGE_DISTANCE = 0.25


@dataclass
class LivePhase:
    """Running accumulator for one detected phase.

    Operator totals accumulate in :attr:`table`, one column add per
    folded step; :attr:`operators` builds the stats objects on demand.
    """

    phase_id: int
    num_steps: int = 0
    first_step: int = -1
    last_step: int = -1
    duration_us: float = 0.0
    tpu_idle_us: float = 0.0
    mxu_flops: float = 0.0
    table: OperatorTable = field(default_factory=OperatorTable)

    def fold(self, step: StepStats) -> None:
        """Accumulate one completed step; the step is not retained."""
        if self.num_steps == 0:
            self.first_step = step.step
        self.num_steps += 1
        self.last_step = step.step
        self.duration_us += step.elapsed_us
        self.tpu_idle_us += step.tpu_idle_us
        self.mxu_flops += step.mxu_flops
        self.table.add(step.columns)

    @property
    def operators(self) -> dict[tuple[str, str], OperatorStats]:
        """The phase's operator totals as fresh stats, in first-fold order."""
        return self.table.freeze().to_operators()

    @property
    def idle_fraction(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return min(self.tpu_idle_us / self.duration_us, 1.0)

    def top_operators(
        self, k: int = 5, device: DeviceKind | None = None
    ) -> list[OperatorStats]:
        """The k most time-consuming operators folded into this phase."""
        return [self.table.stats(*entry) for entry in self.table.ranked(k, device)]

    def top_operator_names(
        self, k: int = 5, device: DeviceKind | None = None
    ) -> list[str]:
        """Names of :meth:`top_operators`, without building stats objects."""
        return [key[0] for key, _ in self.table.ranked(k, device)]


@dataclass
class LiveJobAnalysis:
    """All live analysis state for one job."""

    threshold: float = DEFAULT_SIMILARITY_THRESHOLD
    peak_flops: float = 0.0
    _stream: StepStream = field(default_factory=StepStream)
    _scanner: OnlineLinearScan | None = None
    phases: dict[int, LivePhase] = field(default_factory=dict)
    steps_seen: int = 0
    records_seen: int = 0
    total_duration_us: float = 0.0
    tpu_idle_us: float = 0.0
    mxu_flops: float = 0.0
    #: Holds every released step, in step order, beside the online linear
    #: scan: :meth:`phase_analysis` runs the batch k-means pipeline over
    #: them mid-run, not just OLS labels.
    streaming: StreamingAnalyzer = field(default_factory=StreamingAnalyzer)
    finished: bool = False
    #: Invoked with each step the moment it is attributed to a phase.
    #: The goodput ledger hangs off this; replayed analyses leave it unset
    #: so a rebalance never double-charges a tenant.
    on_step: Callable[[StepStats], None] | None = None

    def __post_init__(self) -> None:
        if self._scanner is None:
            self._scanner = OnlineLinearScan(threshold=self.threshold)

    # --- folding -----------------------------------------------------------

    def ingest(self, record: ProfileRecord) -> int:
        """Fold one record in; returns the number of steps completed by it."""
        if self.finished:
            raise ServeError("job analysis already finished")
        self.records_seen += 1
        folded = 0
        for step in self._stream.submit(record):
            self._fold(step)
            folded += 1
        return folded

    def finish(self) -> int:
        """Flush the step stream (end of run); returns steps released."""
        if self.finished:
            return 0
        folded = 0
        for step in self._stream.flush():
            self._fold(step)
            folded += 1
        self.finished = True
        return folded

    def _fold(self, step: StepStats) -> None:
        self.streaming.fold_step(step)
        label = self._scanner.observe(step)
        phase = self.phases.get(label)
        if phase is None:
            phase = LivePhase(phase_id=label)
            self.phases[label] = phase
        phase.fold(step)
        self.steps_seen += 1
        self.total_duration_us += step.elapsed_us
        self.tpu_idle_us += step.tpu_idle_us
        self.mxu_flops += step.mxu_flops
        if self.on_step is not None:
            self.on_step(step)

    # --- live queries ------------------------------------------------------

    @property
    def num_phases(self) -> int:
        return len(self.phases)

    @property
    def pending_steps(self) -> int:
        """Steps withheld by the assembler (not yet attributed to a phase)."""
        return self._stream.pending_steps

    @property
    def labels(self) -> list[int]:
        """Phase label per folded step, in step order (parity surface)."""
        return list(self._scanner.labels)

    @property
    def phase_labels(self) -> dict[int, int]:
        """Step number -> phase label for every folded step."""
        numbers = (step.step for step in self.streaming.steps)
        return dict(zip(numbers, self._scanner.labels))

    @property
    def idle_fraction(self) -> float:
        """Running TPU idle fraction over all folded steps."""
        if self.total_duration_us <= 0:
            return 0.0
        return min(self.tpu_idle_us / self.total_duration_us, 1.0)

    @property
    def mxu_utilization(self) -> float:
        """Running MXU utilization against the job's chip peak."""
        if self.total_duration_us <= 0 or self.peak_flops <= 0:
            return 0.0
        achieved = self.mxu_flops / (self.total_duration_us / 1e6)
        return min(achieved / self.peak_flops, 1.0)

    def coverage(self, n: int = 3) -> float:
        """Fraction of folded execution time in the n longest phases."""
        if self.total_duration_us <= 0:
            return 0.0
        durations = sorted(
            (phase.duration_us for phase in self.phases.values()), reverse=True
        )
        return min(sum(durations[:n]) / self.total_duration_us, 1.0)

    def phases_by_duration(self) -> list[LivePhase]:
        """Phases ordered by descending accumulated duration."""
        return sorted(self.phases.values(), key=lambda phase: -phase.duration_us)

    def phase_analysis(self) -> AnalysisResult:
        """``TPUPointAnalyzer.kmeans_phases()`` over every step folded so far.

        Non-destructive: folding continues afterwards and a later call
        reflects the longer run.
        """
        return self.streaming.analyze()

    # --- phase similarity (shared distance kernel) -------------------------

    def phase_vectors(self) -> tuple[list[int], np.ndarray]:
        """Per-phase operator-mix vectors over the job's shared vocabulary.

        Each row is a phase's operator duration shares (fractions of the
        phase's total operator time), aligned to the sorted union of
        operator keys across all phases — the live counterpart of the
        offline analyzer's duration-frequency feature rows.
        """
        ids = sorted(self.phases)
        tables = [self.phases[pid].table for pid in ids]
        vocabulary = sorted(set().union(*(table.index for table in tables)))
        column = {key: i for i, key in enumerate(vocabulary)}
        vectors = np.zeros((len(ids), max(len(vocabulary), 1)))
        for row, table in enumerate(tables):
            total = sum(table.durations)
            if total <= 0:
                continue
            for key, duration in zip(table.index, table.durations):
                vectors[row, column[key]] = duration / total
        return ids, vectors

    def phase_distance_matrix(self) -> tuple[list[int], np.ndarray]:
        """Pairwise Euclidean distances between phase operator mixes.

        Computed by the analyzer's blocked distance kernel, so a job with
        many phases never materializes an O(phases^2 x vocabulary)
        broadcast intermediate.
        """
        ids, vectors = self.phase_vectors()
        return ids, pairwise_distances(vectors)

    def similar_phase_pairs(
        self, threshold: float = DEFAULT_PHASE_MERGE_DISTANCE
    ) -> list[tuple[int, int, float]]:
        """Phase-id pairs whose operator mixes are within ``threshold``.

        Returned as ``(phase_a, phase_b, distance)`` sorted by ascending
        distance — the live signal that the online scan split one logical
        phase (e.g. training steps around an eval interruption) that the
        offline clustering would merge.
        """
        if threshold < 0:
            raise ServeError("phase similarity threshold must be non-negative")
        ids, distances = self.phase_distance_matrix()
        pairs = [
            (ids[i], ids[j], float(distances[i, j]))
            for i in range(len(ids))
            for j in range(i + 1, len(ids))
            if distances[i, j] <= threshold
        ]
        pairs.sort(key=lambda pair: pair[2])
        return pairs
