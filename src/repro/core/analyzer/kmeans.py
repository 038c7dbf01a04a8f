"""k-means clustering, implemented from scratch (Lloyd + k-means++).

TPUPoint-Analyzer runs k-means for k = 1..15 on the PCA-reduced step
vectors and picks k with the elbow method on the sum of squared distances
to centroids (Section IV-A), mirroring SimPoint's methodology with the
elbow heuristic replacing the BIC.

Each k is one fit of ``n_init`` restarts. Every restart of every k is
first seeded with k-means++ (:func:`_seed`, all chains in one batched
pass); each k's restarts then advance through Lloyd's iterations
together as one stacked problem (:func:`_restarts`): every round makes
one call into the blocked shared distance kernel
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
from itertools import compress

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
    matrix: np.ndarray,
    ks: list[int],
    streams: list[np.random.Generator],
    seed_rows: dict[int, np.ndarray],
) -> list[list[int]]:
    """k-means++ picks of every chain ``(ks[i], streams[i])``, one pick step at a time.

    Each pick is the draw ``rng.choice(n, p=closest_sq / total)`` makes:
    one ``rng.random()`` from the chain's own generator, searched in the
    normalized cumulative sum. The live chains' sums run as one array; the
    count of entries ``<= u`` is the index ``searchsorted(u, side="right")``
    returns. Chains that share a generator must be seeded one call each.
    """
    n = matrix.shape[0]
    picks = [[int(rng.integers(n))] for rng in streams]
    live = [chain for chain, k in enumerate(ks) if k > 1]
    closest = np.array([_row_sq(matrix, picks[chain][0], seed_rows) for chain in live])
    while live:
        total = closest.sum(axis=1)
        spent = total <= 0.0
        if spent.any():
            # All points coincide with chosen centers; reuse the first pick.
            for chain in compress(live, spent):
                picks[chain] += picks[chain][:1] * (ks[chain] - len(picks[chain]))
            live, closest = list(compress(live, ~spent)), closest[~spent]
            continue
        cdf = np.cumsum(closest / total[:, None], axis=1)
        cdf /= cdf[:, -1:]
        draws = np.array([streams[chain].random() for chain in live])
        for chain, row in zip(live, (cdf <= draws[:, None]).sum(axis=1).tolist()):
            picks[chain].append(row)
        going = np.array([len(picks[chain]) < ks[chain] for chain in live], dtype=bool)
        live = list(compress(live, going))
        rows = [_row_sq(matrix, picks[chain][-1], seed_rows) for chain in live]
        closest = np.minimum(closest[going], np.array(rows).reshape(-1, n))
    return picks


def _restarts(
    matrix: np.ndarray,
    seeds: np.ndarray,
    matrix_sq: np.ndarray,
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
) -> tuple[list[KMeansResult], int]:
    """Every restart of one k, fit from its seeds (restarts x k x dims) as one Lloyd problem.

    Returns the fits in restart order and the rounds taken: the stacked
    iterations, one shared distance call each. ``matrix_sq`` holds the
    matrix's squared row norms (:func:`row_sq_norms`).
    """
    restarts, k, dims = seeds.shape
    n = matrix.shape[0]
    fits: list[KMeansResult] = [None] * restarts
    active = list(range(restarts))
    centers = seeds.reshape(-1, dims)  # the active restarts' centers, stacked
    rows = np.arange(n)
    rounds = 0
    while active:
        rounds += 1
        stacked = len(active)
        # Assignment: one blocked Gram call, n x (restarts * k), for all of them.
        distances = pairwise_sq_distances(matrix, centers, a_sq=matrix_sq)
        cluster_ids = distances.reshape(n, stacked, k).argmin(axis=2)
        cluster_ids += np.arange(0, stacked * k, k)
        # Update: per-cluster sums of every restart in one matmul against
        # a one-hot membership matrix; an empty cluster keeps its center.
        members = np.zeros((n, stacked * k))
        members[rows[:, None], cluster_ids] = 1.0
        counts = np.bincount(cluster_ids.ravel(), minlength=stacked * k)[:, None]
        new = np.where(counts > 0, (members.T @ matrix) / np.maximum(counts, 1), centers)
        shifts = ((new - centers) ** 2).reshape(stacked, k * dims).sum(axis=1).tolist()
        going = []
        for slot, restart in enumerate(active):
            if not (shifts[slot] <= tolerance or rounds >= max_iterations):
                going.append(slot)
                continue
            # Alone, as in an unstacked fit: a stacked call's last bits
            # depend on a column's place, and restarts that end in one
            # partition must tie in inertia for the earliest to win.
            block = new[slot * k : (slot + 1) * k]
            final = pairwise_sq_distances(matrix, block, a_sq=matrix_sq)
            labels = final.argmin(axis=1)
            fits[restart] = KMeansResult(
                k=k,
                labels=labels,
                centers=block.copy(),
                inertia=float(final[rows, labels].sum()),
                iterations=rounds,
            )
        if len(going) < stacked:  # re-gather only when a restart drops out
            new = new.reshape(stacked, k, dims)[going].reshape(-1, dims)
        centers, active = new, [active[slot] for slot in going]
    return fits, rounds


def _fits(
    matrix: np.ndarray,
    k_values: list[int],
    rng: np.random.Generator | None,
    seed: int | None,
    n_init: int,
    seed_rows: dict[int, np.ndarray],
    max_iterations: int = _MAX_ITERATIONS,
    tolerance: float = _TOLERANCE,
) -> dict[int, KMeansResult]:
    """The lowest-inertia restart of every k (ties go to the earliest restart).

    Every chain is seeded first. With a ``seed`` each draws from its own
    substream, all in one batched pass; without one, every restart draws
    from ``rng`` after the one before it, so chains are seeded one by one.
    """
    if n_init <= 0:
        raise ClusteringError("n_init must be positive")
    if min(k_values) <= 0:
        raise ClusteringError("k must be positive")
    if max(k_values) > len(matrix):
        raise ClusteringError(f"k={max(k_values)} exceeds the number of samples ({len(matrix)})")
    if max_iterations <= 0:
        raise ClusteringError("max_iterations must be positive")
    ks = [k for k in k_values for _ in range(n_init)]
    if seed is None:
        rng = rng or np.random.default_rng(0)
        picks = [chain for k in ks for chain in _seed(matrix, [k], [rng], seed_rows)]
    else:
        keys = [restart_key(k, restart) for k in k_values for restart in range(n_init)]
        picks = _seed(matrix, ks, [rng_stream(key, seed) for key in keys], seed_rows)
    matrix_sq = row_sq_norms(matrix)
    results = {}
    for index, k in enumerate(k_values):
        with obs.trace("analyzer.kmeans_fit", k=k) as span:
            seeds = matrix[picks[index * n_init : (index + 1) * n_init]]
            fits, rounds = _restarts(matrix, seeds, matrix_sq, max_iterations, tolerance)
            best = min(fits, key=lambda fit: fit.inertia)
            span.set(inertia=best.inertia, iterations=best.iterations, rounds=rounds)
        results[k] = best
    return results


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
    return _fits(_checked(matrix), [k], rng, seed, n_init, {}, max_iterations, tolerance)[k]


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
    matrix = _checked(matrix)
    feasible = [k for k in k_values if k <= matrix.shape[0]]
    if not feasible:
        raise ClusteringError("no feasible k values for the sample count")
    seed_rows: dict[int, np.ndarray] = {}
    with obs.trace("analyzer.kmeans_sweep", steps=matrix.shape[0]) as span:
        results = _fits(matrix, feasible, rng, seed, n_init, seed_rows)
        span.set(k_count=len(results), seed_rows=len(seed_rows))
    return results


def elbow_k(sweep: dict[int, float]) -> int:
    """The elbow-selected k of an SSD-per-k series (Section IV-A)."""
    ks = sorted(sweep)
    return ks[find_elbow([float(k) for k in ks], [sweep[k] for k in ks])]


def elbow_fit(results: dict[int, KMeansResult]) -> KMeansResult:
    """The elbow-chosen fit of a :func:`sweep_k` result, taken from the sweep."""
    return results[elbow_k({k: fit.inertia for k, fit in results.items()})]
