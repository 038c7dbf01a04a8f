"""k-means clustering, implemented from scratch (Lloyd + k-means++).

TPUPoint-Analyzer runs k-means for k = 1..15 on the PCA-reduced step
vectors and picks k with the elbow method on the sum of squared distances
to centroids (Section IV-A), mirroring SimPoint's methodology with the
elbow heuristic replacing the BIC.

Each k is one fit of ``n_init`` restarts (:func:`_restarts`). The
restarts are seeded one after another with k-means++, then advance
through Lloyd's iterations together as one stacked problem: every round
makes one call into the blocked shared distance kernel
(:mod:`repro.core.analyzer.distance`) for all restarts still running,
and one vectorized center update. A restart whose centers converged
drops out and takes its last assignment alone.

With a ``seed``, every (k, restart) fit draws from its own named RNG
substream (:func:`restart_key`), and :func:`kmeans` and :func:`sweep_k`
run the same per-k fit, so a sweep's fit at k equals a separate seeded
fit at k; the elbow-chosen fit is therefore taken from the sweep
(:func:`elbow_fit`), never refit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.analyzer.distance import pairwise_sq_distances, row_sq_norms
from repro.core.analyzer.elbow import find_elbow
from repro.errors import ClusteringError
from repro.rng import stream as rng_stream

#: The paper's k sweep: k = 1..15 (Section IV-A).
K_SWEEP = range(1, 16)

DEFAULT_N_INIT = 4

_MAX_ITERATIONS = 300
_TOLERANCE = 1e-6


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one k-means run."""

    k: int
    labels: np.ndarray
    centers: np.ndarray
    inertia: float  # sum of squared distances of samples to their centers
    iterations: int


def restart_key(k: int, restart: int) -> str:
    """The RNG-substream name of one (k, restart) task.

    Naming the stream by task identity — never by the order fits run
    in — is what makes a sweep's fit at k equal a separate fit at k.
    """
    return f"analyzer.kmeans/k={k}/init={restart}"


def _checked(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as floats, or a :class:`ClusteringError` if it cannot be clustered."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] == 0:
        raise ClusteringError("k-means needs a non-empty 2-D matrix")
    if not np.isfinite(matrix).all():
        raise ClusteringError("k-means needs finite features; the matrix holds NaN or infinity")
    return matrix


def _row_sq(matrix: np.ndarray, row: int, seed_rows: dict[int, np.ndarray]) -> np.ndarray:
    """Squared distances from every row to row ``row``, computed once per cache."""
    if row not in seed_rows:
        seed_rows[row] = ((matrix - matrix[row]) ** 2).sum(axis=1)
    return seed_rows[row]


def _seed(
    matrix: np.ndarray, k: int, rng: np.random.Generator, seed_rows: dict[int, np.ndarray]
) -> np.ndarray:
    """k-means++ seeding: spread initial centers by squared distance.

    Each pick is the draw ``rng.choice(n, p=closest_sq / total)`` makes:
    one ``rng.random()`` searched in the normalized cumulative sum.
    """
    first = int(rng.integers(matrix.shape[0]))
    picks = [first]
    closest_sq = _row_sq(matrix, first, seed_rows)
    while len(picks) < k:
        total = closest_sq.sum()
        if total <= 0.0:
            # All points coincide with chosen centers; reuse any point.
            picks += [first] * (k - len(picks))
            break
        cdf = np.cumsum(closest_sq / total)
        cdf /= cdf[-1]
        picks.append(int(cdf.searchsorted(rng.random(), side="right")))
        closest_sq = np.minimum(closest_sq, _row_sq(matrix, picks[-1], seed_rows))
    return matrix[picks]


def _restarts(
    matrix: np.ndarray,
    k: int,
    streams: list[np.random.Generator],
    seed_rows: dict[int, np.ndarray],
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
    matrix_sq: np.ndarray | None = None,
) -> tuple[list[KMeansResult], int]:
    """Every restart of one k, fit as one stacked Lloyd problem.

    ``streams`` holds each restart's generator, in restart order.
    Returns the fits in that order and the rounds taken: the stacked
    iterations, one shared distance call each. ``seed_rows`` caches the
    k-means++ distance rows and ``matrix_sq`` holds the matrix's squared
    row norms (computed here when not given); a sweep computes both once
    for all its fits.
    """
    n, dims = matrix.shape
    if not streams:
        raise ClusteringError("n_init must be positive")
    if k <= 0:
        raise ClusteringError("k must be positive")
    if k > n:
        raise ClusteringError(f"k={k} exceeds the number of samples ({n})")
    if max_iterations <= 0:
        raise ClusteringError("max_iterations must be positive")
    if matrix_sq is None:
        matrix_sq = row_sq_norms(matrix)

    centers = np.stack([_seed(matrix, k, rng, seed_rows) for rng in streams])
    iterations = np.zeros(len(streams), dtype=int)
    fits: list[KMeansResult] = [None] * len(streams)
    active = np.arange(len(streams))
    rows = np.arange(n)
    rounds = 0
    while active.size:
        rounds += 1
        old = centers[active].reshape(-1, dims)
        # Assignment: one blocked Gram call, n x (restarts * k), for all of them.
        distances = pairwise_sq_distances(matrix, old, a_sq=matrix_sq)
        distances = distances.reshape(n, active.size, k)
        cluster_ids = distances.argmin(axis=2)
        cluster_ids += np.arange(active.size) * k
        # Update: per-cluster sums of every restart in one matmul against
        # a one-hot membership matrix; an empty cluster keeps its center.
        members = np.zeros((n, active.size * k))
        members[rows[:, None], cluster_ids] = 1.0
        counts = np.bincount(cluster_ids.ravel(), minlength=active.size * k)[:, None]
        new = np.where(counts > 0, (members.T @ matrix) / np.maximum(counts, 1), old)
        shift = ((new - old) ** 2).reshape(active.size, k * dims).sum(axis=1)
        centers[active] = new.reshape(active.size, k, dims)
        iterations[active] += 1
        done = (shift <= tolerance) | (iterations[active] >= max_iterations)
        for restart in active[done]:
            # Alone, as in an unstacked fit: a stacked call's last bits
            # depend on a column's place, and restarts that end in one
            # partition must tie in inertia for the earliest to win.
            final = pairwise_sq_distances(matrix, centers[restart], a_sq=matrix_sq)
            labels = final.argmin(axis=1)
            fits[restart] = KMeansResult(
                k=k,
                labels=labels,
                centers=centers[restart].copy(),
                inertia=float(final[rows, labels].sum()),
                iterations=int(iterations[restart]),
            )
        active = active[~done]
    return fits, rounds


def _fit(
    matrix: np.ndarray,
    k: int,
    rng: np.random.Generator | None,
    seed: int | None,
    n_init: int,
    seed_rows: dict[int, np.ndarray],
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
    matrix_sq: np.ndarray | None = None,
) -> KMeansResult:
    """The lowest-inertia restart of k (ties go to the earliest restart).

    Without a ``seed`` every restart draws from ``rng`` after the one
    before it.
    """
    if seed is None:
        streams = [rng] * n_init
    else:
        streams = [rng_stream(restart_key(k, restart), seed) for restart in range(n_init)]
    with obs.trace("analyzer.kmeans_fit", k=k) as span:
        fits, rounds = _restarts(
            matrix, k, streams, seed_rows, max_iterations, tolerance, matrix_sq
        )
        best = min(fits, key=lambda fit: fit.inertia)
        span.set(inertia=best.inertia, iterations=best.iterations, rounds=rounds)
    return best


def kmeans(
    matrix: np.ndarray,
    k: int,
    rng: np.random.Generator | None = None,
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
    n_init: int = DEFAULT_N_INIT,
    *,
    seed: int | None = None,
) -> KMeansResult:
    """Cluster rows of ``matrix`` into ``k`` groups.

    Runs ``n_init`` independent k-means++ seedings and keeps the lowest
    inertia (ties go to the earliest restart). More restarts make a bad
    local minimum less likely but do not guarantee that SSD falls with
    k: a fit at k can still settle above the fit at k - 1. Passing
    ``rng`` preserves the legacy behaviour of restarts consuming one
    shared sequential stream; passing ``seed`` gives each restart its
    own derived substream (:func:`restart_key`).
    """
    if seed is None:
        rng = rng or np.random.default_rng(0)
    return _fit(_checked(matrix), k, rng, seed, n_init, {}, max_iterations, tolerance)


def sweep_k(
    matrix: np.ndarray,
    k_values: range | list[int] = K_SWEEP,
    rng: np.random.Generator | None = None,
    *,
    seed: int | None = None,
    n_init: int = DEFAULT_N_INIT,
) -> dict[int, KMeansResult]:
    """Run k-means for every feasible k, as the analyzer's stage 2 prescribes.

    Each k is the fit :func:`kmeans` makes; the fits share one cache of
    k-means++ distance rows and one computation of the row norms.
    """
    feasible = [k for k in k_values if k <= matrix.shape[0]]
    if not feasible:
        raise ClusteringError("no feasible k values for the sample count")
    matrix = _checked(matrix)
    rng = rng or np.random.default_rng(0)  # unused by seeded fits
    seed_rows: dict[int, np.ndarray] = {}
    matrix_sq = row_sq_norms(matrix)
    with obs.trace("analyzer.kmeans_sweep", steps=matrix.shape[0]) as span:
        results = {
            k: _fit(matrix, k, rng, seed, n_init, seed_rows, matrix_sq=matrix_sq)
            for k in feasible
        }
        span.set(k_count=len(results), seed_rows=len(seed_rows))
    return results


def elbow_k(sweep: dict[int, float]) -> int:
    """The elbow-selected k of an SSD-per-k series (Section IV-A)."""
    ks = sorted(sweep)
    return ks[find_elbow([float(k) for k in ks], [sweep[k] for k in ks])]


def elbow_fit(results: dict[int, KMeansResult]) -> KMeansResult:
    """The elbow-chosen fit of a :func:`sweep_k` result, taken from the sweep."""
    return results[elbow_k({k: fit.inertia for k, fit in results.items()})]
