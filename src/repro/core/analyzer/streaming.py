"""Streaming phase analysis: online PCA + mini-batch k-means.

The batch :class:`~repro.core.analyzer.analyzer.TPUPointAnalyzer`
materializes the full per-step feature matrix before it can cluster —
O(steps x vocabulary) memory, available only after the run ends. This
module folds each released profile window in *as it arrives* and keeps
state that does not grow with the step count:

* a **signature table** deduplicating identical step feature rows (two
  steps whose per-operator (count, duration) pairs match produce the
  same row, and long runs are dominated by repeats — the same property
  the paper's phases rest on), with one retained representative step
  and a multiplicity per signature;
* **run-length segments** of consecutive same-signature steps carrying
  the per-run metadata aggregates (duration, idle, MXU flops) that
  phase tables are built from;
* **streaming moment accumulators** (per-column sum and sum of squares,
  folded per step) for the standardization, and the signature table's
  multiplicity-weighted second moments for the covariance the sketch
  PCA eigendecomposes — the incremental-covariance update collapsed
  over duplicates so a step costs O(ops), not O(vocabulary^2);
* a seeded **mini-batch k-means** folding each released window as one
  mini-batch, for provisional live labels between full analyses.

Per step that is O(ops log ops) time and O(1) *new* memory unless the
step introduces a new signature or operator. State is therefore
O(distinct signatures + runs + vocabulary) — flat for phase-structured
workloads of any length. An adversarial stream where every step is
distinct degrades to O(steps), the same bound as batch (documented in
``docs/performance.md``).

Two analysis modes:

* ``exact`` (the default): at analysis time the folded sequence is
  reconstructed *by reference* from the signature table (a transient
  O(steps) list of pointers, not a copy of the data) and pushed through
  the very same ``build_features -> PCA -> kmeans`` code path, with the
  same seed, as the batch analyzer — so labels are **bit-identical** to
  ``TPUPointAnalyzer.kmeans_phases()`` by construction (the property
  test in ``tests/property/test_prop_streaming.py`` proves it).
* ``sketch``: never materializes anything O(steps) — standardization
  comes from the streaming moments, PCA from the eigendecomposition of
  the deduplicated covariance, clustering from a multiplicity-weighted
  k-means over the signature rows. Deterministic and seeded, equal to
  batch up to floating-point accumulation order (tolerance-tested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import rng as rng_mod
from repro.core.analyzer.kmeans import DEFAULT_N_INIT, K_SWEEP, elbow_fit, elbow_k, sweep_k
from repro.core.analyzer.kmeans import kmeans as batch_kmeans
from repro.core.analyzer.features import build_features
from repro.core.analyzer.pca import PCA
from repro.core.profiler.record import OperatorStats, ProfileRecord, StepStats
from repro.core.profiler.streaming import StepStream
from repro.errors import AnalyzerError
from repro.runtime.events import DeviceKind

#: Centroid budget of the live mini-batch clusterer (provisional labels).
DEFAULT_MINIBATCH_CLUSTERS = 8

STREAMING_MODES = ("exact", "sketch")


@dataclass(frozen=True)
class StreamingConfig:
    """Configuration of one :class:`StreamingAnalyzer`.

    The defaults mirror the batch analyzer's default k-means pipeline
    (``max_pca_dims=100``, elbow-selected k over the paper's sweep,
    seed 0), which is exactly the configuration the exact mode matches
    bit-for-bit.
    """

    mode: str = "exact"
    max_pca_dims: int = 100
    seed: int = 0
    k: int | None = None
    minibatch_clusters: int = DEFAULT_MINIBATCH_CLUSTERS

    def __post_init__(self) -> None:
        if self.mode not in STREAMING_MODES:
            raise AnalyzerError(
                f"unknown streaming mode {self.mode!r}; use exact or sketch"
            )
        if self.max_pca_dims <= 0:
            raise AnalyzerError("max_pca_dims must be positive")
        if self.k is not None and self.k <= 0:
            raise AnalyzerError("k must be positive when set")
        if self.minibatch_clusters <= 0:
            raise AnalyzerError("minibatch_clusters must be positive")


@dataclass
class StreamingPhase:
    """Accumulated statistics of one detected phase."""

    phase_id: int
    num_steps: int = 0
    first_step: int = -1
    last_step: int = -1
    duration_us: float = 0.0
    tpu_idle_us: float = 0.0
    mxu_flops: float = 0.0
    operators: dict[tuple[str, str], OperatorStats] = field(default_factory=dict)

    @property
    def idle_fraction(self) -> float:
        """Fraction of the phase's span the TPU sat idle."""
        if self.duration_us <= 0:
            return 0.0
        return min(self.tpu_idle_us / self.duration_us, 1.0)

    def top_operators(
        self, k: int = 5, device: DeviceKind | None = None
    ) -> list[OperatorStats]:
        """The k most time-consuming operators attributed to this phase."""
        totals = [
            stats
            for stats in self.operators.values()
            if device is None or stats.device is device
        ]
        totals.sort(key=lambda stats: -stats.total_duration_us)
        return totals[:k]


@dataclass(frozen=True)
class PhaseBoundary:
    """One maximal stretch of consecutive steps sharing a phase label."""

    phase_id: int
    start_position: int  # 0-based position in the folded step sequence
    end_position: int  # inclusive
    first_step: int
    last_step: int

    @property
    def num_steps(self) -> int:
        """Steps inside the boundary (inclusive range)."""
        return self.end_position - self.start_position + 1


@dataclass(frozen=True)
class StreamingAnalysis:
    """Outcome of one streaming phase analysis.

    The full-analysis counterpart of the batch
    :class:`~repro.core.analyzer.analyzer.AnalysisResult`: PCA'd
    cluster labels per folded step plus the phase boundaries and the
    per-phase accumulated statistics.
    """

    method: str
    params: dict
    labels: np.ndarray
    phases: list[StreamingPhase]
    boundaries: list[PhaseBoundary]

    @property
    def num_phases(self) -> int:
        """Number of phases in the analysis."""
        return len(self.phases)


@dataclass
class _Run:
    """Consecutive steps sharing one feature signature."""

    uid: int
    first_step: int
    last_step: int
    count: int = 0
    duration_us: float = 0.0
    tpu_idle_us: float = 0.0
    mxu_flops: float = 0.0


class MiniBatchKMeans:
    """Seeded online k-means over raw feature rows.

    Folds one mini-batch (a released profile window's rows) at a time
    with the standard per-center learning-rate update. Centers live in
    the evolving raw feature space and are zero-padded as the operator
    vocabulary grows. Initialization takes the first ``k`` *distinct*
    rows in arrival order, so the whole trajectory is a pure function
    of the stream and the seed — deterministic across replays.
    """

    def __init__(self, k: int = DEFAULT_MINIBATCH_CLUSTERS, seed: int = 0):
        if k <= 0:
            raise AnalyzerError("mini-batch k must be positive")
        self.k = k
        self.seed = seed
        self._rng = rng_mod.stream("analyzer.streaming.minibatch", seed)
        self._centers: np.ndarray | None = None
        self._counts: np.ndarray | None = None
        self.batches_folded = 0

    @property
    def num_centers(self) -> int:
        """Number of live cluster centers."""
        return 0 if self._centers is None else self._centers.shape[0]

    def _pad(self, dims: int) -> None:
        if self._centers is not None and self._centers.shape[1] < dims:
            grown = np.zeros((self._centers.shape[0], dims))
            grown[:, : self._centers.shape[1]] = self._centers
            self._centers = grown

    def fold(self, rows: np.ndarray) -> None:
        """Fold one mini-batch of rows (a released window) in."""
        if rows.ndim != 2 or rows.shape[0] == 0:
            return
        self.batches_folded += 1
        dims = rows.shape[1]
        self._pad(dims)
        for row in rows:
            if self._centers is None:
                self._centers = row[np.newaxis, :].copy()
                self._counts = np.ones(1)
                continue
            distances = ((self._centers - row) ** 2).sum(axis=1)
            nearest = int(distances.argmin())
            if self.num_centers < self.k and distances[nearest] > 0.0:
                self._centers = np.vstack([self._centers, row])
                self._counts = np.append(self._counts, 1.0)
                continue
            self._counts[nearest] += 1.0
            eta = 1.0 / self._counts[nearest]
            self._centers[nearest] = (1.0 - eta) * self._centers[nearest] + eta * row

    def assign(self, rows: np.ndarray) -> np.ndarray:
        """Nearest-center label per row (provisional live labels)."""
        if self._centers is None or rows.shape[0] == 0:
            return np.zeros(rows.shape[0], dtype=int)
        padded = rows
        if rows.shape[1] < self._centers.shape[1]:
            padded = np.zeros((rows.shape[0], self._centers.shape[1]))
            padded[:, : rows.shape[1]] = rows
        self._pad(rows.shape[1])
        deltas = padded[:, np.newaxis, :] - self._centers[np.newaxis, :, :]
        return (deltas**2).sum(axis=2).argmin(axis=1)

    def state_bytes(self) -> int:
        """Approximate resident size of the clustering state."""
        if self._centers is None:
            return 64
        return int(self._centers.nbytes + self._counts.nbytes + 64)


def _weighted_kmeans_once(
    matrix: np.ndarray,
    weights: np.ndarray,
    k: int,
    rng,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
) -> tuple[np.ndarray, float]:
    """Weighted Lloyd over deduplicated rows (multiplicity weights)."""
    n = matrix.shape[0]
    centers = np.empty((k, matrix.shape[1]))
    first = int(rng.integers(n))
    centers[0] = matrix[first]
    closest_sq = ((matrix - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        weighted = closest_sq * weights
        total = weighted.sum()
        if total <= 0.0:
            centers[index:] = matrix[first]
            break
        choice = int(rng.choice(n, p=weighted / total))
        centers[index] = matrix[choice]
        distance_sq = ((matrix - centers[index]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    labels = np.zeros(n, dtype=int)
    for _ in range(max_iterations):
        deltas = matrix[:, np.newaxis, :] - centers[np.newaxis, :, :]
        distances = (deltas**2).sum(axis=2)
        labels = distances.argmin(axis=1)
        new_centers = centers.copy()
        for cluster in range(k):
            member_weights = weights[labels == cluster]
            if member_weights.sum() > 0:
                members = matrix[labels == cluster]
                new_centers[cluster] = (
                    members * member_weights[:, np.newaxis]
                ).sum(axis=0) / member_weights.sum()
        shift = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        if shift <= tolerance:
            break
    deltas = matrix[:, np.newaxis, :] - centers[np.newaxis, :, :]
    distances = (deltas**2).sum(axis=2)
    labels = distances.argmin(axis=1)
    inertia = float((distances[np.arange(n), labels] * weights).sum())
    return labels, inertia


def _weighted_kmeans(
    matrix: np.ndarray,
    weights: np.ndarray,
    k: int,
    seed: int,
    n_init: int = DEFAULT_N_INIT,
) -> tuple[np.ndarray, float]:
    """Best of ``n_init`` seeded weighted fits (lowest weighted inertia)."""
    best: tuple[np.ndarray, float] | None = None
    for restart in range(n_init):
        rng = rng_mod.stream(f"analyzer.streaming/k={k}/init={restart}", seed)
        candidate = _weighted_kmeans_once(matrix, weights, k, rng)
        if best is None or candidate[1] < best[1]:
            best = candidate
    assert best is not None
    return best


@dataclass
class StreamingAnalyzer:
    """Online phase analysis folding released steps as they arrive.

    Feed it either whole records (:meth:`fold_record`, which assembles
    steps through its own :class:`StepStream`) or already-assembled
    steps (:meth:`fold_step`, the ``serve.live`` path) followed by
    :meth:`end_window` per released window. :meth:`analyze` can be
    called at any time — it never consumes or mutates the folded state,
    so live jobs answer full phase analyses mid-run.
    """

    config: StreamingConfig = field(default_factory=StreamingConfig)

    def __post_init__(self) -> None:
        self._stream = StepStream()
        self._signatures: dict[tuple, int] = {}
        self._unique_steps: list[StepStats] = []
        self._unique_counts: list[int] = []
        self._runs: list[_Run] = []
        self._steps_folded = 0
        # Streaming per-column moments (duration / count planes), folded
        # per step: the sketch standardization reads these, never a
        # materialized matrix.
        self._dur_sum: dict[tuple[str, str], float] = {}
        self._dur_sumsq: dict[tuple[str, str], float] = {}
        self._cnt_sum: dict[tuple[str, str], float] = {}
        self._cnt_sumsq: dict[tuple[str, str], float] = {}
        self._minibatch = MiniBatchKMeans(
            k=self.config.minibatch_clusters, seed=self.config.seed
        )
        self._window_uids: list[int] = []

    # --- folding -----------------------------------------------------------

    @property
    def steps_folded(self) -> int:
        """Completed steps folded into the analysis so far."""
        return self._steps_folded

    @property
    def num_signatures(self) -> int:
        """Distinct step feature signatures seen so far."""
        return len(self._unique_steps)

    @property
    def num_runs(self) -> int:
        """Maximal same-signature stretches seen so far."""
        return len(self._runs)

    def fold_record(self, record: ProfileRecord) -> int:
        """Assemble and fold one record; returns steps released by it."""
        folded = 0
        for step in self._stream.submit(record):
            self.fold_step(step)
            folded += 1
        self.end_window()
        return folded

    def finish(self) -> int:
        """Flush the internal assembler (end of stream); returns steps."""
        folded = 0
        for step in self._stream.flush():
            self.fold_step(step)
            folded += 1
        self.end_window()
        return folded

    def fold_step(self, step: StepStats) -> None:
        """Fold one completed step (already assembled) into the state."""
        signature = tuple(
            sorted(
                (key, stats.count, stats.total_duration_us)
                for key, stats in step.operators.items()
            )
        )
        uid = self._signatures.get(signature)
        if uid is None:
            uid = len(self._unique_steps)
            self._signatures[signature] = uid
            self._unique_steps.append(step)
            self._unique_counts.append(1)
        else:
            self._unique_counts[uid] += 1
        if self._runs and self._runs[-1].uid == uid:
            run = self._runs[-1]
            run.last_step = step.step
        else:
            run = _Run(uid=uid, first_step=step.step, last_step=step.step)
            self._runs.append(run)
        run.count += 1
        run.duration_us += step.elapsed_us
        run.tpu_idle_us += step.tpu_idle_us
        run.mxu_flops += step.mxu_flops
        for key, stats in step.operators.items():
            duration = stats.total_duration_us
            count = float(stats.count)
            self._dur_sum[key] = self._dur_sum.get(key, 0.0) + duration
            self._dur_sumsq[key] = self._dur_sumsq.get(key, 0.0) + duration * duration
            self._cnt_sum[key] = self._cnt_sum.get(key, 0.0) + count
            self._cnt_sumsq[key] = self._cnt_sumsq.get(key, 0.0) + count * count
        self._steps_folded += 1
        self._window_uids.append(uid)

    def end_window(self) -> None:
        """Close one released window: fold its rows as a mini-batch."""
        if not self._window_uids:
            return
        vocabulary, column = self._vocabulary()
        rows = np.zeros((len(self._window_uids), 2 * max(len(vocabulary), 1)))
        for position, uid in enumerate(self._window_uids):
            self._fill_row(rows, position, uid, column, len(vocabulary))
        self._minibatch.fold(rows)
        self._window_uids = []

    # --- shared geometry ---------------------------------------------------

    def _vocabulary(self) -> tuple[list[tuple[str, str]], dict]:
        vocabulary = sorted(self._dur_sum)
        return vocabulary, {key: i for i, key in enumerate(vocabulary)}

    def _fill_row(self, rows, position, uid, column, width) -> None:
        for key, stats in self._unique_steps[uid].operators.items():
            index = column[key]
            rows[position, index] = stats.total_duration_us
            rows[position, width + index] = stats.count

    def _unique_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw feature rows of the signature table + multiplicities."""
        vocabulary, column = self._vocabulary()
        width = len(vocabulary)
        rows = np.zeros((len(self._unique_steps), 2 * max(width, 1)))
        for uid in range(len(self._unique_steps)):
            self._fill_row(rows, uid, uid, column, width)
        return rows, np.asarray(self._unique_counts, dtype=float)

    def provisional_labels(self) -> np.ndarray:
        """Mini-batch cluster label per folded step (live, cheap).

        These are the between-analyses labels the mini-batch centroids
        imply; the full :meth:`analyze` labels supersede them.
        """
        if self._steps_folded == 0:
            return np.zeros(0, dtype=int)
        rows, _weights = self._unique_rows()
        per_uid = self._minibatch.assign(rows)
        return self._expand(per_uid)

    def _expand(self, per_uid: np.ndarray) -> np.ndarray:
        """Per-signature values expanded to one entry per folded step."""
        run_values = np.asarray([per_uid[run.uid] for run in self._runs])
        run_counts = np.asarray([run.count for run in self._runs])
        return np.repeat(run_values, run_counts)

    def state_bytes(self) -> int:
        """Approximate resident footprint of the streaming state.

        Counts the signature table (representative steps + moments),
        the run segments, and the mini-batch centroids — everything the
        analyzer retains between steps. Deliberately excludes the
        transient buffers :meth:`analyze` allocates.
        """
        operators = sum(len(step.operators) for step in self._unique_steps)
        signature_table = 120 * len(self._unique_steps) + 96 * operators
        moments = 4 * 96 * len(self._dur_sum)
        runs = 96 * len(self._runs)
        return int(signature_table + moments + runs + self._minibatch.state_bytes())

    # --- full analysis -----------------------------------------------------

    def analyze(self) -> StreamingAnalysis:
        """Full phase analysis (PCA'd cluster labels + boundaries).

        Non-destructive: folding can continue afterwards and a later
        call reflects the longer stream.
        """
        if self._steps_folded == 0:
            raise AnalyzerError("no steps folded into the streaming analyzer")
        if self.config.mode == "exact":
            labels, params = self._analyze_exact()
        else:
            labels, params = self._analyze_sketch()
        phases, boundaries = self._build_phases(labels)
        return StreamingAnalysis(
            method=f"kmeans-streaming-{self.config.mode}",
            params=params,
            labels=labels,
            phases=phases,
            boundaries=boundaries,
        )

    def _analyze_exact(self) -> tuple[np.ndarray, dict]:
        """The batch pipeline over a by-reference reconstruction.

        ``steps_view`` is a transient list of *pointers* into the
        signature table (steps with equal signatures share one
        representative object), pushed through the identical
        ``build_features -> PCA -> kmeans`` calls — and the identical
        seed substreams — the batch analyzer uses. Labels depend only
        on the feature rows, and equal signatures mean equal rows, so
        the result is bit-identical to
        ``TPUPointAnalyzer(records).kmeans_phases()``.
        """
        steps_view: list[StepStats] = []
        for run in self._runs:
            steps_view.extend([self._unique_steps[run.uid]] * run.count)
        combined = build_features(steps_view).combined(standardize=True)
        matrix = PCA(max_components=self.config.max_pca_dims).fit_transform(combined)
        if self.config.k is None:
            result = elbow_fit(sweep_k(matrix, seed=self.config.seed))
        else:
            result = batch_kmeans(matrix, self.config.k, seed=self.config.seed)
        return result.labels, {"k": result.k, "inertia": result.inertia, "mode": "exact"}

    def _analyze_sketch(self) -> tuple[np.ndarray, dict]:
        """Never-materializing path: moments -> eigen PCA -> weighted k-means."""
        rows, weights = self._unique_rows()
        vocabulary, column = self._vocabulary()
        width = max(len(vocabulary), 1)
        n = float(self._steps_folded)
        mean = np.zeros(2 * width)
        second = np.zeros(2 * width)
        for key, index in column.items():
            mean[index] = self._dur_sum[key] / n
            second[index] = self._dur_sumsq[key] / n
            mean[width + index] = self._cnt_sum[key] / n
            second[width + index] = self._cnt_sumsq[key] / n
        variance = np.maximum(second - mean**2, 0.0)
        std = np.sqrt(variance)
        std[std == 0.0] = 1.0
        standardized = (rows - mean) / std
        # Weighted covariance of the standardized rows about their
        # weighted mean — the deduplicated form of the incremental
        # rank-1 covariance update.
        weighted_mean = (weights @ standardized) / n
        centered = standardized - weighted_mean
        denominator = max(n - 1.0, 1.0)
        covariance = (centered.T * weights) @ centered / denominator
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        order = np.argsort(eigenvalues)[::-1]
        rank = min(self.config.max_pca_dims, centered.shape[1])
        components = eigenvectors[:, order[:rank]]
        projected = centered @ components
        k = self.config.k
        if k is None:
            k = self._choose_k_sketch(projected, weights)
        per_uid, inertia = _weighted_kmeans(projected, weights, k, self.config.seed)
        labels = self._expand(per_uid)
        return labels, {"k": k, "inertia": inertia, "mode": "sketch"}

    def _choose_k_sketch(self, projected: np.ndarray, weights: np.ndarray) -> int:
        feasible = [k for k in K_SWEEP if k <= projected.shape[0]]
        if not feasible:
            feasible = [1]
        sweep = {k: _weighted_kmeans(projected, weights, k, self.config.seed)[1] for k in feasible}
        return elbow_k(sweep)

    def _build_phases(
        self, labels: np.ndarray
    ) -> tuple[list[StreamingPhase], list[PhaseBoundary]]:
        """Phase tables + boundary segments from the run aggregates.

        Every step of one run shares a signature and therefore a label,
        so a run maps to exactly one phase; phase operator totals scale
        the signature's per-step stats by the run multiplicity. Phase
        *metadata* therefore matches batch phases up to floating-point
        accumulation order, while the labels themselves are whatever
        the analysis mode guarantees.
        """
        phases: dict[int, StreamingPhase] = {}
        boundaries: list[PhaseBoundary] = []
        position = 0
        for run in self._runs:
            label = int(labels[position])
            phase = phases.get(label)
            if phase is None:
                phase = StreamingPhase(phase_id=label, first_step=run.first_step)
                phases[label] = phase
            phase.num_steps += run.count
            phase.last_step = run.last_step
            phase.duration_us += run.duration_us
            phase.tpu_idle_us += run.tpu_idle_us
            phase.mxu_flops += run.mxu_flops
            for key, stats in self._unique_steps[run.uid].operators.items():
                existing = phase.operators.get(key)
                if existing is None:
                    phase.operators[key] = OperatorStats(
                        name=stats.name,
                        device=stats.device,
                        count=stats.count * run.count,
                        total_duration_us=stats.total_duration_us * run.count,
                    )
                else:
                    existing.count += stats.count * run.count
                    existing.total_duration_us += stats.total_duration_us * run.count
            end_position = position + run.count - 1
            if boundaries and boundaries[-1].phase_id == label:
                previous = boundaries[-1]
                boundaries[-1] = PhaseBoundary(
                    phase_id=label,
                    start_position=previous.start_position,
                    end_position=end_position,
                    first_step=previous.first_step,
                    last_step=run.last_step,
                )
            else:
                boundaries.append(
                    PhaseBoundary(
                        phase_id=label,
                        start_position=position,
                        end_position=end_position,
                        first_step=run.first_step,
                        last_step=run.last_step,
                    )
                )
            position += run.count
        ordered = sorted(phases.values(), key=lambda phase: -phase.duration_us)
        return ordered, boundaries


__all__ = [
    "DEFAULT_MINIBATCH_CLUSTERS",
    "MiniBatchKMeans",
    "PhaseBoundary",
    "STREAMING_MODES",
    "StreamingAnalysis",
    "StreamingAnalyzer",
    "StreamingConfig",
    "StreamingPhase",
]
