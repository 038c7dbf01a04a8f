"""TPUPoint-Analyzer orchestration.

Ties the pieces together: merge profile records into per-step statistics,
build frequency vectors, detect phases with any of the three algorithms
(k-means, DBSCAN, OLS), and export visualizations. The methods mirror the
three-stage descriptions of Section IV-A, including the elbow-method
selection of k (k-means) and of the minimum sample count (DBSCAN).

k-means and DBSCAN post-process the whole run; the optional
``memory_budget_bytes`` bounds that footprint — the feature matrix for
k-means, the neighbor graph plus one O(block x n) distance block for
DBSCAN (the blocked shared kernel of
:mod:`repro.core.analyzer.distance` replaced the old O(n^2 d) broadcast
tensor) — reproducing the paper's note that both clustering methods hit
memory limits on the largest workloads while OLS, which holds only two
steps of state, never does.

Sweeps share work (see ``docs/performance.md``): the DBSCAN
min_samples sweep spends exactly one distance pass and relabels a
cached neighbor graph per sweep point, and every k-means++ restart of
the k-sweep draws from its own named RNG substream, so the
elbow-chosen fit is taken from the sweep instead of being refit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.analyzer import dbscan as dbscan_mod
from repro.core.analyzer import kmeans as kmeans_mod
from repro.core.analyzer import ols as ols_mod
from repro.core.analyzer.coverage import CoverageReport, coverage
from repro.core.analyzer.csvexport import write_operator_csv, write_phase_csv
from repro.core.analyzer.distance import NeighborGraph, build_neighbor_graph
from repro.core.analyzer.elbow import find_elbow
from repro.core.analyzer.features import FeatureMatrix, build_features, merge_records
from repro.core.analyzer.pca import PCA
from repro.core.analyzer.phases import Phase, build_phases
from repro.core.analyzer.visualize import write_chrome_trace
from repro.core.profiler.record import ProfileRecord, StepStats
from repro.errors import AnalyzerError, AnalyzerMemoryError

__all__ = [
    "AnalysisResult",
    "AnalyzerMemoryError",
    "TPUPointAnalyzer",
]

_DURATION_SECONDS = obs.histogram(
    "repro_analyzer_duration_seconds",
    "Wall time of one phase-detection run, by algorithm.",
    labels=("algorithm",),
    buckets=obs.ALGORITHM_BUCKETS,
)
_SWEEP_SECONDS = obs.histogram(
    "repro_analyzer_sweep_seconds",
    "Wall time of one parameter sweep, by algorithm.",
    labels=("algorithm",),
    buckets=obs.ALGORITHM_BUCKETS,
)


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one phase-detection run."""

    method: str
    params: dict
    labels: np.ndarray
    phases: list[Phase]

    @property
    def num_phases(self) -> int:
        """Number of detected phases."""
        return len(self.phases)

    def coverage(self) -> CoverageReport:
        """Execution-time coverage of the detected phases."""
        return coverage(self.phases)

    def transition_matrix(self) -> tuple[list[int], np.ndarray]:
        """Phase-to-phase step transition counts, in timeline order.

        Returns ``(phase_ids, matrix)`` where ``matrix[i, j]`` counts
        how often a step labeled ``phase_ids[i]`` was immediately
        followed by one labeled ``phase_ids[j]``. For OLS the matrix is
        band-diagonal (phases are contiguous); for k-means/DBSCAN,
        off-diagonal mass shows recurring behaviour — the structure
        SimPoint exploits when it simulates one point per cluster.
        """
        phase_ids = sorted({int(label) for label in self.labels.tolist()})
        index = {phase: i for i, phase in enumerate(phase_ids)}
        matrix = np.zeros((len(phase_ids), len(phase_ids)), dtype=int)
        labels = self.labels.tolist()
        for current, nxt in zip(labels, labels[1:]):
            matrix[index[int(current)], index[int(nxt)]] += 1
        return phase_ids, matrix

    def label_runs(self) -> list[tuple[int, int, int]]:
        """Maximal stretches of equal labels as ``(start, end, label)``.

        Positions are 0-based and inclusive, in timeline order, so the
        runs tile ``0..len(labels) - 1``. ``tpupoint fleet`` prints them
        as each job's phase boundaries.
        """
        runs: list[tuple[int, int, int]] = []
        for position, label in enumerate(self.labels.tolist()):
            if runs and runs[-1][2] == label:
                runs[-1] = (runs[-1][0], position, label)
            else:
                runs.append((position, position, int(label)))
        return runs

    def recurrence_fraction(self) -> float:
        """Fraction of transitions that *re-enter* a previously seen phase.

        Zero for OLS (contiguous phases never recur); positive for
        clustering methods when behaviour alternates, e.g. train/eval
        interleaving.
        """
        labels = self.labels.tolist()
        seen: set[int] = set()
        reentries = 0
        transitions = 0
        previous: int | None = None
        for label in labels:
            label = int(label)
            if previous is not None and label != previous:
                transitions += 1
                if label in seen:
                    reentries += 1
            seen.add(label)
            previous = label
        if transitions == 0:
            return 0.0
        return reentries / transitions


@dataclass
class TPUPointAnalyzer:
    """Post-execution analysis over one run's profile records.

    The merged steps, feature matrix, PCA reduction and DBSCAN neighbor
    graph are computed once per instance and shared by every method.
    """

    records: list[ProfileRecord]
    max_pca_dims: int = 100
    memory_budget_bytes: float | None = None
    seed: int = 0
    _steps: list[StepStats] | None = field(default=None, repr=False)
    _features: FeatureMatrix | None = field(default=None, repr=False)
    _reduced: np.ndarray | None = field(default=None, repr=False)
    _graph: NeighborGraph | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if not self.records and self._steps is None:
            raise AnalyzerError("analyzer needs at least one profile record")

    @classmethod
    def from_steps(cls, steps: list[StepStats]) -> TPUPointAnalyzer:
        """An analyzer over steps already assembled from records.

        The live path: a :class:`~repro.core.profiler.streaming.StepStream`
        merges a step split across records as :func:`merge_records`
        does, so the phases equal those of the records the steps came
        from. Without records, :meth:`export`'s trace has phases but no
        profile windows.
        """
        if not steps:
            raise AnalyzerError("analyzer needs at least one step")
        return cls(records=[], _steps=list(steps))

    # --- shared stage 1: aggregation and features ---------------------------

    @property
    def steps(self) -> list[StepStats]:
        """All profiled steps, merged across records, in step order."""
        if self._steps is None:
            with obs.trace("analyzer.merge_records", records=len(self.records)) as span:
                self._steps = merge_records(self.records)
                span.set(steps=len(self._steps))
            if not self._steps:
                raise AnalyzerError("profile records contain no steps")
        return self._steps

    @property
    def features(self) -> FeatureMatrix:
        """Frequency-vector representation of the steps."""
        if self._features is None:
            with obs.trace("analyzer.build_features", steps=len(self.steps)):
                self._features = build_features(self.steps)
        return self._features

    def close(self) -> None:
        """A no-op: the analyzer holds no threads or open files.

        Kept so that callers written against older releases, which had
        to release a worker pool here, keep working unchanged.
        """

    def reduced_matrix(self) -> np.ndarray:
        """PCA-reduced step vectors (at most ``max_pca_dims`` dims)."""
        if self._reduced is None:
            combined = self.features.combined(standardize=True)
            self._check_memory(combined.nbytes, "k-means feature matrix")
            with obs.trace(
                "analyzer.pca", rows=combined.shape[0], dims=combined.shape[1]
            ) as span:
                pca = PCA(max_components=self.max_pca_dims)
                self._reduced = pca.fit_transform(combined)
                span.set(reduced_dims=self._reduced.shape[1])
        return self._reduced

    def _check_memory(self, required_bytes: float, what: str) -> None:
        if self.memory_budget_bytes is not None and required_bytes > self.memory_budget_bytes:
            raise AnalyzerMemoryError(
                f"{what} needs {required_bytes:.0f} B, over the "
                f"{self.memory_budget_bytes:.0f} B budget"
            )

    # --- k-means ------------------------------------------------------------

    def _kmeans_results(
        self, k_values: range | list[int]
    ) -> dict[int, kmeans_mod.KMeansResult]:
        """Instrumented k sweep: one seeded best-of-restarts fit per k.

        Every restart draws from its own seed-derived substream
        (:func:`repro.core.analyzer.kmeans.restart_key`), so the fit at
        each k equals a separate seeded :func:`~repro.core.analyzer.kmeans.kmeans`
        at that k.
        """
        matrix = self.reduced_matrix()
        began = time.perf_counter()
        results = kmeans_mod.sweep_k(matrix, k_values, seed=self.seed)
        _SWEEP_SECONDS.labels(algorithm="kmeans").observe(time.perf_counter() - began)
        return results

    def kmeans_sweep(self, k_values: range | list[int] = kmeans_mod.K_SWEEP) -> dict[int, float]:
        """SSD per k (Figure 4's series)."""
        return {k: fit.inertia for k, fit in self._kmeans_results(k_values).items()}

    def choose_k(
        self, k_values: range | list[int] = kmeans_mod.K_SWEEP, criterion: str = "elbow"
    ) -> int:
        """Select k by the elbow method (the paper) or SimPoint's BIC."""
        if criterion == "elbow":
            return kmeans_mod.elbow_k(self.kmeans_sweep(k_values))
        if criterion == "bic":
            from repro.core.analyzer.bic import choose_k_bic

            return choose_k_bic(self.reduced_matrix(), self._kmeans_results(k_values))
        raise AnalyzerError(f"unknown k-selection criterion {criterion!r}")

    def kmeans_phases(self, k: int | None = None) -> AnalysisResult:
        """Detect phases with k-means (elbow-selected k by default).

        The elbow-selected fit is taken from the k-sweep itself, not refit.
        """
        began = time.perf_counter()
        with obs.trace("analyzer.kmeans_phases") as span:
            if k is None:
                fit = kmeans_mod.elbow_fit(self._kmeans_results(kmeans_mod.K_SWEEP))
            else:
                fit = kmeans_mod.kmeans(self.reduced_matrix(), k, seed=self.seed)
            span.set(k=fit.k, phases=len(set(fit.labels.tolist())))
            analysis = AnalysisResult(
                method="kmeans",
                params={"k": fit.k, "inertia": fit.inertia},
                labels=fit.labels,
                phases=build_phases(self.steps, fit.labels),
            )
        _DURATION_SECONDS.labels(algorithm="kmeans").observe(time.perf_counter() - began)
        return analysis

    # --- DBSCAN ---------------------------------------------------------------

    def neighbor_graph(self) -> NeighborGraph:
        """The eps-neighborhood graph, built once and reused.

        One blocked distance pass computes both the k-distance eps
        heuristic and the adjacency; the min_samples sweep, the elbow
        choice, and ``dbscan_phases`` all relabel this same graph.
        """
        if self._graph is None:
            matrix = self.reduced_matrix()
            self._graph = build_neighbor_graph(
                matrix, memory_budget_bytes=self.memory_budget_bytes
            )
        return self._graph

    def dbscan_sweep(
        self, min_samples_values: range | list[int] = dbscan_mod.MIN_SAMPLES_SWEEP
    ) -> dict[int, float]:
        """Noise ratio per min_samples (Figure 5's series)."""
        began = time.perf_counter()
        matrix = self.reduced_matrix()
        with obs.trace("analyzer.dbscan_sweep", steps=matrix.shape[0]) as span:
            results = dbscan_mod.sweep_min_samples(
                matrix, min_samples_values, graph=self.neighbor_graph()
            )
            span.set(sweep_points=len(results))
        _SWEEP_SECONDS.labels(algorithm="dbscan").observe(time.perf_counter() - began)
        return {ms: result.noise_ratio for ms, result in results.items()}

    def choose_min_samples(
        self, min_samples_values: range | list[int] = dbscan_mod.MIN_SAMPLES_SWEEP
    ) -> int:
        """Elbow-selected minimum sample count."""
        sweep = self.dbscan_sweep(min_samples_values)
        values = sorted(sweep)
        return values[
            find_elbow([float(v) for v in values], [sweep[v] for v in values])
        ]

    def dbscan_phases(self, min_samples: int = 30) -> AnalysisResult:
        """Detect phases with DBSCAN; noise forms its own phase."""
        began = time.perf_counter()
        with obs.trace("analyzer.dbscan_phases", min_samples=min_samples) as span:
            graph = self.neighbor_graph()
            result = dbscan_mod.dbscan_from_graph(graph, min_samples)
            span.set(eps=graph.eps, noise_ratio=result.noise_ratio)
            analysis = AnalysisResult(
                method="dbscan",
                params={
                    "min_samples": min_samples,
                    "eps": graph.eps,
                    "noise_ratio": result.noise_ratio,
                },
                labels=result.labels,
                phases=build_phases(self.steps, result.labels),
            )
        _DURATION_SECONDS.labels(algorithm="dbscan").observe(time.perf_counter() - began)
        return analysis

    # --- OLS ---------------------------------------------------------------------

    def ols_sweep(self, thresholds: list[float]) -> dict[float, int]:
        """Phase count per similarity threshold (Figure 6's series)."""
        began = time.perf_counter()
        with obs.trace("analyzer.ols_sweep", thresholds=len(thresholds)):
            sweep = ols_mod.sweep_thresholds(self.steps, thresholds)
        _SWEEP_SECONDS.labels(algorithm="ols").observe(time.perf_counter() - began)
        return sweep

    def ols_phases(
        self, threshold: float = ols_mod.DEFAULT_SIMILARITY_THRESHOLD
    ) -> AnalysisResult:
        """Detect phases with the online linear scan."""
        began = time.perf_counter()
        with obs.trace("analyzer.ols_phases", threshold=threshold) as span:
            labels = ols_mod.ols_labels(self.steps, threshold)
            span.set(phases=len(set(labels.tolist())))
            analysis = AnalysisResult(
                method="ols",
                params={"threshold": threshold},
                labels=labels,
                phases=build_phases(self.steps, labels),
            )
        _DURATION_SECONDS.labels(algorithm="ols").observe(time.perf_counter() - began)
        return analysis

    # --- dispatch + export ----------------------------------------------------------

    def analyze(self, method: str = "ols", **params) -> AnalysisResult:
        """Run one of the three detection algorithms by name."""
        if method == "ols":
            return self.ols_phases(**params)
        if method == "kmeans":
            return self.kmeans_phases(**params)
        if method == "dbscan":
            return self.dbscan_phases(**params)
        raise AnalyzerError(f"unknown method {method!r}; use ols/kmeans/dbscan")

    def export(self, directory, result: AnalysisResult) -> dict[str, str]:
        """Write the chrome trace and CSVs; returns {kind: path}."""
        from pathlib import Path

        directory = Path(directory)
        with obs.trace("analyzer.export", method=result.method):
            return self._export(directory, result)

    def _export(self, directory, result: AnalysisResult) -> dict[str, str]:
        trace = write_chrome_trace(
            directory / f"{result.method}_trace.json", self.records, result.phases
        )
        phase_csv = write_phase_csv(directory / f"{result.method}_phases.csv", result.phases)
        op_csv = write_operator_csv(
            directory / f"{result.method}_operators.csv", result.phases
        )
        return {"trace": str(trace), "phases": str(phase_csv), "operators": str(op_csv)}
