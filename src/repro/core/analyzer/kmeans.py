"""k-means clustering, implemented from scratch (Lloyd + k-means++).

TPUPoint-Analyzer runs k-means for k = 1..15 on the PCA-reduced step
vectors and picks k with the elbow method on the sum of squared distances
to centroids (Section IV-A), mirroring SimPoint's methodology with the
elbow heuristic replacing the BIC.

The assignment step uses the blocked shared distance kernel
(:mod:`repro.core.analyzer.distance`). With a ``seed``, every
(k, restart) fit draws from its own named RNG substream
(:func:`restart_key`), so a sweep's fit at k equals a separate seeded
fit at k; the elbow-chosen fit is therefore taken from the sweep
(:func:`elbow_fit`), never refit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.analyzer.distance import pairwise_sq_distances
from repro.core.analyzer.elbow import find_elbow
from repro.errors import ClusteringError
from repro.rng import stream as rng_stream

#: The paper's k sweep: k = 1..15 (Section IV-A).
K_SWEEP = range(1, 16)

DEFAULT_N_INIT = 4


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means run."""

    k: int
    labels: np.ndarray
    centers: np.ndarray
    inertia: float  # sum of squared distances of samples to their centers
    iterations: int


def _kmeanspp_init(
    matrix: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared distance."""
    n = matrix.shape[0]
    centers = np.empty((k, matrix.shape[1]))
    first = int(rng.integers(n))
    centers[0] = matrix[first]
    closest_sq = ((matrix - centers[0]) ** 2).sum(axis=1)
    for index in range(1, k):
        total = closest_sq.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; reuse any point.
            centers[index:] = matrix[first]
            break
        probabilities = closest_sq / total
        choice = int(rng.choice(n, p=probabilities))
        centers[index] = matrix[choice]
        distance_sq = ((matrix - centers[index]) ** 2).sum(axis=1)
        closest_sq = np.minimum(closest_sq, distance_sq)
    return centers


def restart_key(k: int, restart: int) -> str:
    """The RNG-substream name of one (k, restart) task.

    Naming the stream by task identity — never by the order fits run
    in — is what makes a sweep's fit at k equal a separate fit at k.
    """
    return f"analyzer.kmeans/k={k}/init={restart}"


def kmeans(
    matrix: np.ndarray,
    k: int,
    rng: np.random.Generator | None = None,
    max_iterations: int = 300,
    tolerance: float = 1e-6,
    n_init: int = DEFAULT_N_INIT,
    *,
    seed: int | None = None,
) -> KMeansResult:
    """Cluster rows of ``matrix`` into ``k`` groups.

    Runs ``n_init`` independent k-means++ seedings and keeps the lowest
    inertia (ties go to the earliest restart), so the SSD-vs-k curve
    stays monotone enough for the elbow method. Passing ``rng``
    preserves the legacy behaviour of restarts consuming one shared
    sequential stream; passing ``seed`` gives each restart its own
    derived substream (:func:`restart_key`).
    """
    if n_init <= 0:
        raise ClusteringError("n_init must be positive")
    if seed is None:
        rng = rng or np.random.default_rng(0)
    best: KMeansResult | None = None
    for restart in range(n_init):
        stream = rng if seed is None else rng_stream(restart_key(k, restart), seed)
        candidate = _kmeans_once(matrix, k, stream, max_iterations, tolerance)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    assert best is not None
    return best


def _kmeans_once(
    matrix: np.ndarray,
    k: int,
    rng: np.random.Generator,
    max_iterations: int,
    tolerance: float,
) -> KMeansResult:
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ClusteringError("k-means needs a non-empty 2-D matrix")
    n = matrix.shape[0]
    if k <= 0:
        raise ClusteringError("k must be positive")
    if k > n:
        raise ClusteringError(f"k={k} exceeds the number of samples ({n})")
    if max_iterations <= 0:
        raise ClusteringError("max_iterations must be positive")

    centers = _kmeanspp_init(matrix, k, rng)
    labels = np.zeros(n, dtype=int)
    for iteration in range(1, max_iterations + 1):
        # Assignment step (blocked Gram kernel, O(block x k) transient).
        distances = pairwise_sq_distances(matrix, centers)
        labels = distances.argmin(axis=1)
        # Update step.
        new_centers = centers.copy()
        for cluster in range(k):
            members = matrix[labels == cluster]
            if len(members):
                new_centers[cluster] = members.mean(axis=0)
        shift = float(((new_centers - centers) ** 2).sum())
        centers = new_centers
        if shift <= tolerance:
            break
    distances = pairwise_sq_distances(matrix, centers)
    labels = distances.argmin(axis=1)
    inertia = float(distances[np.arange(n), labels].sum())
    return KMeansResult(k=k, labels=labels, centers=centers, inertia=inertia, iterations=iteration)


def sweep_k(
    matrix: np.ndarray,
    k_values: range | list[int] = K_SWEEP,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
    n_init: int = DEFAULT_N_INIT,
) -> dict[int, KMeansResult]:
    """Run k-means for every feasible k, as the analyzer's stage 2 prescribes."""
    feasible = [k for k in k_values if k <= matrix.shape[0]]
    if not feasible:
        raise ClusteringError("no feasible k values for the sample count")
    rng = rng or np.random.default_rng(0)  # unused by seeded fits
    results: dict[int, KMeansResult] = {}
    for k in feasible:
        with obs.trace("analyzer.kmeans_fit", k=k) as span:
            results[k] = kmeans(matrix, k, rng, n_init=n_init, seed=seed)
            span.set(inertia=results[k].inertia, iterations=results[k].iterations)
    return results


def elbow_k(sweep: dict[int, float]) -> int:
    """The elbow-selected k of an SSD-per-k series (Section IV-A)."""
    ks = sorted(sweep)
    return ks[find_elbow([float(k) for k in ks], [sweep[k] for k in ks])]


def elbow_fit(results: dict[int, KMeansResult]) -> KMeansResult:
    """The elbow-chosen fit of a :func:`sweep_k` result, taken from the sweep."""
    return results[elbow_k({k: fit.inertia for k, fit in results.items()})]
